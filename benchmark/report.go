package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// report is the JSON record of the runs of one checkout: every end-to-end
// metric per workload as median, quartiles and n over the repetitions, the
// per-layer metrics of one traced run, and the host that measured them.
type report struct {
	Host      hostInfo                   `json:"host"`
	Root      string                     `json:"root"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Reps      int                        `json:"reps"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type hostInfo struct {
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	Go       string `json:"go"`
	Platform string `json:"platform"`
}

type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// series is one metric's values over repetitions with their summary.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	RelIQR float64   `json:"rel_iqr"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
	s.N = len(s.Values)
	s.RelIQR = relIQR(s.Values)
}

// side is one checkout whose benchmark runAll runs, through the command
// its BENCHMARK.json names.
type side struct {
	command []string
	rep     *report
}

func newSide(spec *benchSpec, root string, cfg runConfig, reps int) (*side, error) {
	own, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	rep := &report{Host: host(), Root: root, Commit: commit(root), Seed: cfg.seed, Reps: reps,
		Seconds: cfg.seconds, Workloads: map[string]*workloadReport{}}
	for _, w := range spec.Workloads {
		wr := &workloadReport{EndToEnd: map[string]*series{}}
		for _, m := range spec.EndToEnd {
			wr.EndToEnd[m.Name] = &series{Unit: m.Unit}
		}
		rep.Workloads[w.Name] = wr
	}
	return &side{command: own.Command, rep: rep}, nil
}

// run runs one workload in the side's checkout and records its result
// line; it reports whether the run succeeded with correct outputs.
func (s *side) run(ctx context.Context, cfg runConfig, workload string, seed int64, traced bool) bool {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := append(slices.Clone(s.command[1:]), "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "--trace", trace)
	cmd := exec.CommandContext(ctx, s.command[0], args...)
	cmd.Dir = s.rep.Root
	cmd.Stderr = cfg.log
	out, runErr := cmd.Output()
	var line resultLine
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &line)
	wr := s.rep.Workloads[workload]
	if err = errors.Join(runErr, err); err != nil || !line.Correct {
		fmt.Fprintf(cfg.log, "deadbench: %s in %s, seed %d: %v\n", workload, s.rep.Root, seed, err)
		wr.Attempted += max(line.Attempted, 1)
		wr.Failed += max(line.Failed, 1)
		return false
	}
	wr.Attempted += line.Attempted
	if traced {
		wr.PerLayer = map[string]float64{}
		for name, v := range line.Metrics {
			wr.PerLayer[name] = v.Value
		}
		return true
	}
	for name, v := range line.Metrics {
		if ser, ok := wr.EndToEnd[name]; ok {
			ser.add(v.Value)
		}
	}
	return true
}

// runAll runs every workload reps times, seeds seed..seed+reps-1, in an
// order the seed shuffles per repetition, then once traced. Each run is
// the command of BENCHMARK.json, as a comparison would run it. With no
// baseline it prints the summary table, the stability self-check. With a
// baseline checkout it runs the two side by side in pairs, alternating
// which goes first, so that host drift lands on both alike, and prints
// the comparison. out, if set, receives the report (or, paired, both).
func runAll(ctx context.Context, spec *benchSpec, cfg runConfig, reps int, baseline, out string, stdout io.Writer) int {
	roots := []string{"."}
	if baseline != "" {
		roots = []string{baseline, "."}
	}
	var sides []*side
	for _, root := range roots {
		s, err := newSide(spec, root, cfg, reps)
		if err != nil {
			fmt.Fprintln(cfg.log, "deadbench:", err)
			return 2
		}
		sides = append(sides, s)
	}
	ok := true
	for i := 0; i < reps; i++ {
		seed := cfg.seed + int64(i)
		order := slices.Clone(workloadNames)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, name := range order {
			for k := range sides {
				ok = sides[(k+i)%len(sides)].run(ctx, cfg, name, seed, false) && ok
			}
		}
	}
	for _, name := range workloadNames {
		for _, s := range sides {
			ok = s.run(ctx, cfg, name, cfg.seed, true) && ok
		}
	}

	var record any = sides[0].rep
	if len(sides) == 1 {
		printReport(stdout, spec, sides[0].rep)
	} else {
		a, b := sides[0].rep, sides[1].rep
		ok = !printCompare(stdout, spec, a, b, true) && ok
		record = map[string]*report{"baseline": a, "change": b}
	}
	if out != "" {
		data, err := json.MarshalIndent(record, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(cfg.log, "deadbench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func printReport(w io.Writer, spec *benchSpec, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %s, nproc %d, %s %s; commit %s; seed %d, %d reps of %gs\n",
		h.CPU, h.NProc, h.Go, h.Platform, rep.Commit, rep.Seed, rep.Reps, rep.Seconds)
	for _, wl := range spec.Workloads {
		wr := rep.Workloads[wl.Name]
		fmt.Fprintf(w, "\n%s: %d operations, %d failed\n", wl.Name, wr.Attempted, wr.Failed)
		for _, m := range spec.EndToEnd {
			s := wr.EndToEnd[m.Name]
			// The stability self-check: past a third of the bound, a
			// regression of the bound's size cannot be told from noise.
			flag := ""
			if s.RelIQR > m.Bound/3 {
				flag = "  UNSTABLE: spread over a third of the bound"
			}
			fmt.Fprintf(w, "  %-12s %12.4f %-4s [%.4f, %.4f]  n=%d  spread %.1f%% (bound %.0f%%)%s\n",
				m.Name, s.Median, s.Unit, s.Q1, s.Q3, s.N, 100*s.RelIQR, 100*m.Bound, flag)
		}
		for _, m := range spec.PerLayer {
			if v, ok := wr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

// compareReports loads two reports and prints their comparison. Runs
// made at different times are not paired, so host drift between them
// lands in the verdicts; runAll with a baseline avoids that.
func compareReports(spec *benchSpec, aPath, bPath string, stdout, stderr io.Writer) int {
	var a, b report
	for _, f := range []struct {
		path string
		rep  *report
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(data, f.rep)
		}
		if err != nil {
			fmt.Fprintln(stderr, "deadbench:", err)
			return 2
		}
	}
	if printCompare(stdout, spec, &a, &b, false) {
		return 1
	}
	return 0
}

// printCompare prints a verdict per (workload, end-to-end metric), and
// for paired runs how many pairs b won. Exact counts of the deterministic
// workloads must match exactly. It reports whether anything is worse,
// mismatched, missing or failed.
func printCompare(w io.Writer, spec *benchSpec, a, b *report, paired bool) (bad bool) {
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-14s missing from a report\n", wl.Name)
			bad = true
			continue
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s %-36s %d failed operations  worse\n", wl.Name, "failed", wb.Failed)
			bad = true
		}
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil || sa.N == 0 || sb.N == 0 {
				fmt.Fprintf(w, "%-14s %-36s missing\n", wl.Name, m.Name)
				bad = true
				continue
			}
			v := verdict(m, sa, sb)
			bad = bad || v == "worse"
			pairs := ""
			if paired && sa.N == sb.N {
				won := 0
				for i := range sa.Values {
					if better(m, sb.Values[i], sa.Values[i]) {
						won++
					}
				}
				pairs = fmt.Sprintf(", won %d/%d pairs", won, sa.N)
			}
			fmt.Fprintf(w, "%-14s %-36s %12.4f -> %12.4f %-4s %+6.1f%% (bound %.0f%%, spread %.1f%%/%.1f%%%s)  %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, m.Unit, 100*(sb.Median/sa.Median-1),
				100*m.Bound, 100*sa.RelIQR, 100*sb.RelIQR, pairs, v)
		}
		if wl.Name == daemonMix {
			continue // coalescing makes the daemon's hit counts timing-dependent
		}
		for _, m := range spec.PerLayer {
			if m.Unit != "count" || !strings.HasPrefix(m.Name, "artifact.") {
				continue
			}
			va, okA := wa.PerLayer[m.Name]
			vb, okB := wb.PerLayer[m.Name]
			if !okA || !okB {
				continue
			}
			v := "same"
			if va != vb {
				v, bad = "MISMATCH", true
			}
			fmt.Fprintf(w, "%-14s %-36s %12.0f -> %12.0f count  %s\n", wl.Name, m.Name, va, vb, v)
		}
	}
	return bad
}

// verdict classifies the move of one metric from a to b: worse or better
// when the median moved past the bound, same within it. When either
// side's spread exceeds a third of the bound, a move of the bound's size
// cannot be told from noise, so the verdict is unresolved unless every
// value of b lies beyond every value of a in the verdict's direction
// (for same: better).
func verdict(m metricSpec, a, b *series) string {
	worse := b.Median/a.Median - 1
	if m.Better == "higher" {
		worse = -worse
	}
	v, allBetter := "same", true
	switch {
	case worse > m.Bound:
		v, allBetter = "worse", false
	case worse < -m.Bound:
		v = "better"
	}
	if max(a.RelIQR, b.RelIQR) > m.Bound/3 {
		for _, x := range a.Values {
			for _, y := range b.Values {
				if better(m, y, x) != allBetter || y == x {
					return "unresolved"
				}
			}
		}
	}
	return v
}

// better reports whether value y of metric m is better than value x.
func better(m metricSpec, y, x float64) bool {
	if m.Better == "higher" {
		return y > x
	}
	return y < x
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit is the git commit checked out at root, or "unknown" outside a
// git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
