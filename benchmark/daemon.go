package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/dip"
	"repro/internal/metrics"
	"repro/internal/server"
)

// daemonConns is how many closed-loop connections daemon-mix drives.
const daemonConns = 2

// daemonBodies counts the distinct response bodies daemon-mix received,
// keyed by request kind and body, for verification after the window.
type daemonBodies struct {
	mu     sync.Mutex
	counts map[string]int
}

// keep is the load generator's Verify hook. It only records the body:
// checking it against a direct workspace waits until after the window.
func (d *daemonBodies) keep(kind string, body []byte) error {
	d.mu.Lock()
	d.counts[kind+"\n"+string(body)]++
	d.mu.Unlock()
	return nil
}

func (r *runner) daemonMix(ctx context.Context) error {
	r.bodies = &daemonBodies{counts: map[string]int{}}
	err := r.window(func(i int) error { return r.daemonPass(ctx, i, false) })
	if err == nil && r.cfg.traced {
		err = r.daemonPass(ctx, -1, true)
	}
	if err != nil {
		return err
	}
	r.verifyDaemon()
	return nil
}

// daemonPass starts a fresh cmd/deadd at its defaults, warms every suite
// profile (the setup), then sends one seeded request sequence through
// server.RunLoad, the load generator behind cmd/deadload, over
// daemonConns closed-loop connections. The traced pass (i < 0) also
// snapshots /metricz around the sequence.
func (r *runner) daemonPass(ctx context.Context, i int, traced bool) error {
	start := time.Now()
	cmd := exec.CommandContext(ctx, r.cfg.deadd, "-addr", "127.0.0.1:0", "-n", strconv.Itoa(r.cfg.scale.SuiteBudget))
	c, err := startChild(cmd, true, "deadd: serving on ", r.cfg.log)
	if err != nil {
		return err
	}
	defer c.stop()
	defer http.DefaultClient.CloseIdleConnections() // the daemon does not outlive the pass
	var base string
	var workers int
	if _, err := fmt.Sscanf(c.ready, "%s (workers=%d", &base, &workers); err != nil {
		return fmt.Errorf("deadd ready line %q: %w", c.ready, err)
	}
	for _, name := range core.SuiteNames() {
		body, err := post(ctx, base+"/v1/profile", fmt.Sprintf(`{"bench":%q}`, name))
		if err != nil {
			return fmt.Errorf("warming profiles: %w", err)
		}
		r.bodies.keep("profile", body)
	}
	setup := time.Since(start).Seconds()

	var m0, m1 metricz
	if traced {
		if err := getJSON(ctx, base+"/metricz", &m0); err != nil {
			return err
		}
	}
	t := time.Now()
	rep, err := server.RunLoad(ctx, base, server.LoadConfig{
		Requests: r.cfg.scale.Requests, Concurrency: daemonConns,
		Seed: uint64(r.cfg.seed)<<16 + uint64(i+1), Verify: r.bodies.keep,
	})
	wall := time.Since(t).Seconds()
	if err != nil {
		return err
	}
	rss, err := vmHWMMiB(c.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if traced {
		if err := getJSON(ctx, base+"/metricz", &m1); err != nil {
			return err
		}
	}
	if err := c.terminate(); err != nil {
		return fmt.Errorf("deadd shutdown: %w", err)
	}
	r.res.Attempted += rep.Sent
	if rep.Failed > 0 {
		r.fail(rep.Failed, fmt.Sprintf("daemon-mix: %d of %d requests failed, final statuses %v", rep.Failed, rep.Sent, rep.ByStatus))
	}
	if traced {
		r.traced = daemonTraced(m0, m1, wall, workers)
		return nil
	}
	r.setups = append(r.setups, setup)
	r.sample(wall, rss)
	return nil
}

func post(ctx context.Context, url, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s %s: status %d: %s", url, body, resp.StatusCode, strings.TrimSpace(b.String()))
	}
	return b.Bytes(), nil
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// vmHWMMiB reads a process's peak resident set from /proc.
func vmHWMMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// verifyDaemon checks every distinct response body against the same query
// answered by a direct core.Workspace in this process (experiments against
// the golden digests), after the window. Each response whose answer is
// wrong counts as failed.
func (r *runner) verifyDaemon() {
	keys := make([]string, 0, len(r.bodies.counts))
	for k := range r.bodies.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := core.NewWorkspace(r.cfg.scale.SuiteBudget)
	for _, k := range keys {
		kind, body, _ := strings.Cut(k, "\n")
		if p := r.verifyBody(w, kind, []byte(body)); p != "" {
			r.fail(r.bodies.counts[k], p)
		}
	}
}

func (r *runner) verifyBody(w *core.Workspace, kind string, body []byte) string {
	switch kind {
	case "experiment":
		var got server.ExperimentResult
		if err := json.Unmarshal(body, &got); err != nil || got.Error != "" {
			return fmt.Sprintf("experiment response %.80q: %v %s", body, err, got.Error)
		}
		if p := check("daemon experiment", r.cfg.golden.Experiments, map[string]string{got.ID: digest([]byte(got.Render))}); p != nil {
			return p[0]
		}
		return ""
	case "profile":
		var got server.ProfileStats
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Sprintf("profile response %.80q: %v", body, err)
		}
		p, err := w.ProfileOf(got.Bench)
		if err != nil {
			return fmt.Sprintf("profile %s: direct workspace: %v", got.Bench, err)
		}
		want := server.ProfileStats{Bench: got.Bench, Budget: w.Budget, Summary: p.Summary,
			Locality: p.Locality, DeadFraction: p.Summary.DeadFraction()}
		if !sameJSON(body, want) {
			return fmt.Sprintf("profile %s: response differs from the direct workspace", got.Bench)
		}
		return ""
	case "predeval":
		// The load generator asks only for the CFI predictor at its
		// default geometry.
		var got server.PredEvalResult
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Sprintf("predeval response %.80q: %v", body, err)
		}
		spec := dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()}
		res, err := w.EvalPredictor(got.Bench, spec)
		if err != nil {
			return fmt.Sprintf("predeval %s: direct workspace: %v", got.Bench, err)
		}
		want := server.PredEvalResult{Bench: got.Bench, Spec: spec.Label(), Result: res,
			Coverage: res.Coverage(), Accuracy: res.Accuracy()}
		if !sameJSON(body, want) {
			return fmt.Sprintf("predeval %s %s: response differs from the direct workspace", got.Bench, got.Spec)
		}
		return ""
	}
	return fmt.Sprintf("response of unknown kind %q", kind)
}

// sameJSON reports whether body encodes the same JSON value as want.
func sameJSON(body []byte, want any) bool {
	wb, err := json.Marshal(want)
	var g, wv any
	return err == nil && json.Unmarshal(body, &g) == nil && json.Unmarshal(wb, &wv) == nil && reflect.DeepEqual(g, wv)
}

// metricz is the part of the daemon's /metricz the benchmark reads.
type metricz struct {
	Run       metrics.Summary `json:"run"`
	Artifacts artifact.Stats  `json:"artifacts"`
}

// serverShares splits the connections' busy time (the window times
// daemonConns: a closed loop keeps each connection busy) in the traced
// daemon pass: admission queue wait, execution, and the remainder outside
// the server's own latency histogram (transport and HTTP handling).
type serverShares struct {
	queue, exec, transport   float64
	coalesced, shed, retries float64
}

// daemonTraced derives the traced pass from /metricz snapshots taken
// before (m0) and after (m1) the request sequence.
func daemonTraced(m0, m1 metricz, wall float64, workers int) *tracedPass {
	tp := &tracedPass{wall: wall, workers: workers, phases: map[string]metrics.PhaseSummary{},
		artifacts: artifact.Stats{Kinds: map[artifact.Kind]artifact.KindStats{}}}
	for name, p := range m1.Run.Phases {
		q := m0.Run.Phases[name]
		tp.phases[name] = metrics.PhaseSummary{Count: p.Count - q.Count, WallSeconds: p.WallSeconds - q.WallSeconds}
	}
	for k, s := range m1.Artifacts.Kinds {
		q := m0.Artifacts.Kinds[k]
		tp.artifacts.Kinds[k] = artifact.KindStats{Hits: s.Hits - q.Hits, Misses: s.Misses - q.Misses, DiskHits: s.DiskHits - q.DiskHits}
	}
	// Histogram sums are mean × count; differencing them isolates the pass.
	sum := func(prefix string) float64 {
		var total float64
		for name, h := range m1.Run.Histograms {
			if strings.HasPrefix(name, prefix+".") {
				q := m0.Run.Histograms[name]
				total += h.MeanMs*float64(h.Count) - q.MeanMs*float64(q.Count)
			}
		}
		return total
	}
	counter := func(name string) float64 { return float64(m1.Run.Counters[name] - m0.Run.Counters[name]) }
	busyMs := wall * daemonConns * 1000
	tp.server = &serverShares{
		queue:     sum(metrics.HistServerQueueWait) / busyMs,
		exec:      sum(metrics.HistServerExec) / busyMs,
		transport: 1 - sum(metrics.HistServerLatency)/busyMs,
		coalesced: counter(metrics.CounterServerCoalesced),
		shed:      counter(metrics.CounterServerShed),
		retries:   counter(metrics.CounterServerRetries),
	}
	return tp
}
