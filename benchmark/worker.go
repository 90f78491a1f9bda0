package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/metrics"
)

// workerEnv names the environment variable that turns the benchmark
// binary (or its test binary) into a worker child; its value is the role.
const workerEnv = "DEADBENCH_WORKER"

// Worker roles.
const (
	roleSuite    = "suite"    // RunExperiments on a fresh workspace
	roleProfiles = "profiles" // ProfileOf for every suite benchmark on a fresh workspace
	roleLayers   = "layers"   // the traced layer replay (layers.go)
)

// job is a worker's input, sent as JSON on its standard input.
type job struct {
	Budget int `json:"budget"`
	// IDs are the experiments a suite worker runs.
	IDs []string `json:"ids,omitempty"`
	// CacheDir attaches a disk tier to a suite worker's workspace.
	CacheDir string `json:"cache_dir,omitempty"`
	// Traced sets Workspace.Metrics so the pass reports phase totals.
	Traced bool `json:"traced,omitempty"`
}

// passResult is what a suite or profiles worker reports for its pass.
type passResult struct {
	Wall      float64           `json:"wall_s"`
	RSSMiB    float64           `json:"rss_mib"`
	Workers   int               `json:"workers"`
	Ops       int               `json:"ops"`
	Digests   map[string]string `json:"digests"`
	Artifacts artifact.Stats    `json:"artifacts"`
	Metrics   *metrics.Summary  `json:"metrics,omitempty"`
}

// peakRSSMiB is this process's peak resident set (VmHWM): getrusage's
// Maxrss, which Linux, the platform the benchmark targets, gives in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// workerMain runs one worker role: it reads its job, announces itself with
// a "ready" line (the parent times start-up up to that line), does the
// work, and prints its result as the last line.
func workerMain(role string) int {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "worker: reading job:", err)
		return 2
	}
	fmt.Println("ready")
	var res any
	var err error
	switch role {
	case roleSuite:
		res, err = suitePass(j)
	case roleProfiles:
		res, err = profilesPass(j)
	case roleLayers:
		res, err = replayLayers(j)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err == nil {
		var b []byte
		if b, err = json.Marshal(res); err == nil {
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", role, err)
		return 1
	}
	return 0
}

// passWorkspace makes the fresh workspace a pass runs on, over the job's
// disk tier if it names one, with the phase collector on when traced.
func passWorkspace(j job) (*core.Workspace, *metrics.Collector, error) {
	w := core.NewWorkspace(j.Budget)
	if j.CacheDir != "" {
		if err := w.OpenDiskCache(j.CacheDir, 0); err != nil {
			return nil, nil, err
		}
	}
	var mc *metrics.Collector
	if j.Traced {
		mc = metrics.New()
		w.Metrics = mc
	}
	return w, mc, nil
}

// newPassResult records what every pass reports once its timed call ends.
func newPassResult(w *core.Workspace, mc *metrics.Collector, wall float64, ops int) *passResult {
	res := &passResult{
		Wall: wall, RSSMiB: peakRSSMiB(), Workers: w.Pool().Workers(), Ops: ops,
		Digests: map[string]string{}, Artifacts: w.ArtifactStats(),
	}
	if mc != nil {
		s := mc.Summary()
		res.Metrics = &s
	}
	return res
}

// suitePass runs the requested experiments once and digests each
// experiment's rendering.
func suitePass(j job) (*passResult, error) {
	w, mc, err := passWorkspace(j)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	exps, err := w.RunExperiments(context.Background(), j.IDs)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	res := newPassResult(w, mc, wall, len(exps))
	for _, e := range exps {
		res.Digests[e.ID] = digest([]byte(e.Render()))
	}
	return res, nil
}

// profilesPass builds every suite profile through the workspace's pool
// and digests each profile's summary.
func profilesPass(j job) (*passResult, error) {
	w, mc, err := passWorkspace(j)
	if err != nil {
		return nil, err
	}
	names := core.SuiteNames()
	digests := make([]string, len(names))
	start := time.Now()
	err = w.Pool().ForEach(context.Background(), len(names), func(i int) error {
		p, err := w.ProfileOf(names[i])
		if err != nil {
			return err
		}
		digests[i], err = jsonDigest(p.Summary)
		return err
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	res := newPassResult(w, mc, wall, len(names))
	for i, name := range names {
		res.Digests[name] = digests[i]
	}
	return res, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// child is a running worker process or daemon.
type child struct {
	cmd   *exec.Cmd
	out   *bufio.Scanner // the stream the ready line arrives on
	log   io.Writer
	ready string        // the rest of the ready line
	setup time.Duration // from start until the ready line
	done  bool
}

// startChild starts cmd on one thread (GOMAXPROCS=1, see README.md) and
// waits for the first line with the given prefix on its standard output,
// or on its standard error when fromStderr; other lines go to log. The
// process dies with the benchmark, and with the context cmd was made
// with; callers must call wait, terminate or stop exactly once.
func startChild(cmd *exec.Cmd, fromStderr bool, prefix string, log io.Writer) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(cmd.Environ(), "GOMAXPROCS=1")
	cmd.WaitDelay = 5 * time.Second
	var pipe io.ReadCloser
	var err error
	if fromStderr {
		pipe, err = cmd.StderrPipe()
	} else {
		cmd.Stderr = log
		pipe, err = cmd.StdoutPipe()
	}
	if err != nil {
		return nil, err
	}
	name := filepath.Base(cmd.Path)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{cmd: cmd, out: bufio.NewScanner(pipe), log: log}
	c.out.Buffer(make([]byte, 1<<16), 1<<28)
	for c.out.Scan() {
		if rest, ok := strings.CutPrefix(c.out.Text(), prefix); ok {
			c.setup = time.Since(start)
			c.ready = strings.TrimSpace(rest)
			return c, nil
		}
		fmt.Fprintln(log, c.out.Text())
	}
	c.stop()
	return nil, fmt.Errorf("%s exited before it was ready", name)
}

// wait reads the child's remaining output and waits for it to exit
// successfully. With v non-nil, the last line is the child's JSON result,
// decoded into v; with v nil, the output goes to the log if the child
// failed.
func (c *child) wait(v any) error {
	var lines []string
	for c.out.Scan() {
		if line := strings.TrimSpace(c.out.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	scanErr := c.out.Err()
	c.done = true
	if err := c.cmd.Wait(); err != nil {
		if v == nil {
			fmt.Fprintln(c.log, strings.Join(lines, "\n"))
		}
		return fmt.Errorf("%s: %w", filepath.Base(c.cmd.Path), err)
	}
	if scanErr != nil {
		return fmt.Errorf("%s output: %w", filepath.Base(c.cmd.Path), scanErr)
	}
	if v == nil {
		return nil
	}
	if len(lines) == 0 {
		return errors.New("worker printed no result")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("worker result: %w", err)
	}
	return nil
}

// terminate asks the child to stop with SIGTERM and waits for it, killing
// it if it has not exited within a minute.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.stop()
		return err
	}
	kill := time.AfterFunc(time.Minute, func() { c.cmd.Process.Kill() })
	defer kill.Stop()
	return c.wait(nil)
}

// stop kills the child if it is still running and reaps it.
func (c *child) stop() {
	if c.done {
		return
	}
	c.done = true
	c.cmd.Process.Kill()
	for c.out.Scan() {
	}
	c.cmd.Wait()
}

// runWorker runs the benchmark binary exe as a worker with the given role
// and job, decodes its result into v, and reports its start-up time.
func runWorker(ctx context.Context, exe, role string, j job, log io.Writer, v any) (time.Duration, error) {
	in, err := json.Marshal(j)
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+role)
	cmd.Stdin = strings.NewReader(string(in))
	c, err := startChild(cmd, false, "ready", log)
	if err != nil {
		return 0, fmt.Errorf("%s worker: %w", role, err)
	}
	return c.setup, c.wait(v)
}
