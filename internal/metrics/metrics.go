// Package metrics provides run observability for the experiment engine:
// per-phase wall time, dynamic-instruction throughput, allocation deltas,
// and named counters (memoization hits, simulation counts).
//
// A Collector is safe for concurrent use and nil-safe: every method on a
// nil *Collector is a no-op, so instrumented code can pass a collector
// through unconditionally and callers that do not care pay nothing.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Canonical phase names used by the experiment engine. PhaseAnalyze covers
// the fused link+analyze pass: linking is never a phase of its own.
const (
	PhaseCompile  = "compile"
	PhaseEmulate  = "emulate"
	PhaseAnalyze  = "analyze"
	PhaseSimulate = "simulate"
)

// Canonical counter names for the failure model: injected faults (the
// fault injector also emits a per-site/kind breakdown under
// "faults_injected.<site>.<kind>") and failed experiments.
const (
	CounterFaultsInjected     = "faults_injected"
	CounterExperimentFailures = "experiment_failures"
)

// Canonical counter names for the experiment service daemon
// (internal/server): admitted requests, requests shed by the bounded
// admission queue (429 backpressure), the live queue depth (incremented
// on enqueue, decremented on dequeue or abandonment — a gauge carried on
// the counter substrate), completed and failed requests, and streaming
// progress subscriptions.
const (
	CounterServerAdmitted   = "server_admitted"
	CounterServerShed       = "server_shed"
	CounterServerQueueDepth = "server_queue_depth"
	CounterServerCompleted  = "server_completed"
	CounterServerFailed     = "server_failed"
	CounterServerStreams    = "server_streams"
	// CounterServerRetries is never incremented: the daemon runs each
	// request once. The name stays declared because benchmark/daemon.go
	// still reports it.
	CounterServerRetries = "server_retries"
	// CounterServerCoalesced is never incremented: identical requests
	// share builds in the artifact store, not in the server. The name
	// stays declared because benchmark/daemon.go still reports it.
	CounterServerCoalesced = "server_coalesced"
	// Artifact-endpoint traffic: remote-tier reads served (hit/miss).
	CounterServerArtifactHits   = "server_artifact_hits"
	CounterServerArtifactMisses = "server_artifact_misses"
	// CounterServerArtifactSpillthrough counts the GET hits served straight
	// from the disk tier's entry file — the framed bytes on disk ARE
	// the wire format, so the response skips the decode/re-encode/re-frame
	// round trip (a subset of server_artifact_hits).
	CounterServerArtifactSpillthrough = "server_artifact_spillthrough"
)

// Histogram names recorded by the daemon, one per endpoint under
// "<name>.<endpoint>": end-to-end request latency, time spent waiting for
// an admission slot, and execution time after admission. The split makes
// "slow because queued" and "slow because the work is slow"
// distinguishable in /metricz without a profiler.
const (
	HistServerLatency   = "server_latency"
	HistServerQueueWait = "server_queue_wait"
	HistServerExec      = "server_exec"
)

// Phase aggregates every span recorded under one phase name (compile,
// emulate, link, analyze, simulate, ...).
type Phase struct {
	Count      int64
	Wall       time.Duration
	Insts      int64
	AllocBytes int64
}

// MInstPerSec is the phase's aggregate dynamic-instruction throughput in
// millions per second of wall time (0 when no instructions were recorded).
func (p Phase) MInstPerSec() float64 {
	if p.Insts == 0 || p.Wall <= 0 {
		return 0
	}
	return float64(p.Insts) / p.Wall.Seconds() / 1e6
}

// Collector accumulates phase timings, counters, and latency histograms.
type Collector struct {
	mu       sync.Mutex
	verbose  io.Writer
	phases   map[string]*Phase
	counters map[string]int64
	hists    map[string]*histogram
	mem      *MemStats
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations whose microsecond count has bit length i (i.e.
// power-of-two-width buckets, 1µs granularity at the bottom, ~4.5 years
// at the top — nothing saturates).
const histBuckets = 48

// histogram records counts per power-of-two microsecond bucket plus
// exact count/sum/max. Guarded by the collector lock; an update is one
// bit-length and four adds.
type histogram struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [histBuckets]int64
}

func histIndex(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe folds one duration into the named histogram.
func (c *Collector) Observe(name string, d time.Duration) {
	if c == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		if c.hists == nil {
			c.hists = make(map[string]*histogram)
		}
		h = &histogram{}
		c.hists[name] = h
	}
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[histIndex(d)]++
	c.mu.Unlock()
}

// quantile estimates the q-quantile (q in [0,1]) by walking the
// cumulative bucket counts and interpolating linearly inside the target
// bucket, clamped to the exact observed maximum. Call with c.mu held.
func (h *histogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < rank {
			continue
		}
		// Bucket i spans [2^(i-1), 2^i) µs (bucket 0 is <1µs).
		var lo, hi float64
		if i > 0 {
			lo = float64(uint64(1) << (i - 1))
			hi = float64(uint64(1) << i)
		} else {
			lo, hi = 0, 1
		}
		frac := (rank - prev) / float64(n)
		d := time.Duration((lo + frac*(hi-lo)) * float64(time.Microsecond))
		if d > h.max {
			d = h.max
		}
		return d
	}
	return h.max
}

// MemStats is the end-of-run process memory snapshot carried by the run
// report. PeakHeapBytes is the OS-reserved heap footprint (HeapSys): the
// runtime seldom returns heap pages mid-run, so it reads as the high-water
// mark of the run's memory demand; TotalAllocBytes is cumulative
// allocation over the whole run.
type MemStats struct {
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	PeakHeapBytes   uint64 `json:"peak_heap_bytes"`
	HeapInuseBytes  uint64 `json:"heap_inuse_bytes"`
	NumGC           uint32 `json:"num_gc"`
}

// RecordMemStats snapshots process memory into the collector via
// runtime.ReadMemStats. The read stops the world, so call it once at the
// end of a run, not per phase (phase-level allocation deltas come from the
// stop-the-world-free runtime/metrics counter instead).
func (c *Collector) RecordMemStats() {
	if c == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &MemStats{
		TotalAllocBytes: ms.TotalAlloc,
		PeakHeapBytes:   ms.HeapSys,
		HeapInuseBytes:  ms.HeapInuse,
		NumGC:           ms.NumGC,
	}
	c.mu.Lock()
	c.mem = m
	c.mu.Unlock()
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		phases:   make(map[string]*Phase),
		counters: make(map[string]int64),
	}
}

// SetVerbose directs a one-line progress message per completed span to w
// (nil disables). Call before concurrent use.
func (c *Collector) SetVerbose(w io.Writer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.verbose = w
	c.mu.Unlock()
}

// Add increments a named counter.
func (c *Collector) Add(counter string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[counter] += n
	c.mu.Unlock()
}

// Counter returns a counter's current value.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Span is one in-flight timed region; close it with End.
type Span struct {
	c      *Collector
	phase  string
	detail string
	start  time.Time
	alloc0 uint64
}

// Start opens a span under the given phase name. The detail string only
// appears in verbose progress lines, not in the aggregate.
func (c *Collector) Start(phase, detail string) *Span {
	if c == nil {
		return nil
	}
	return &Span{
		c:      c,
		phase:  phase,
		detail: detail,
		start:  time.Now(),
		alloc0: heapAllocBytes(),
	}
}

// End closes the span, folding its wall time, the given dynamic
// instruction count, and the heap-allocation delta into the phase
// aggregate. The allocation delta reads a process-global counter, so under
// concurrency it attributes other goroutines' allocations too — treat it
// as an upper bound, exact only for serial runs.
func (s *Span) End(insts int64) {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	alloc := int64(heapAllocBytes() - s.alloc0)
	c := s.c
	c.mu.Lock()
	p := c.phases[s.phase]
	if p == nil {
		p = &Phase{}
		c.phases[s.phase] = p
	}
	p.Count++
	p.Wall += wall
	p.Insts += insts
	p.AllocBytes += alloc
	w := c.verbose
	c.mu.Unlock()
	if w != nil {
		thr := ""
		if insts > 0 && wall > 0 {
			thr = fmt.Sprintf("  %6.1f Minst/s", float64(insts)/wall.Seconds()/1e6)
		}
		fmt.Fprintf(w, "%-10s %-36s %8.3fs%s  +%s\n",
			s.phase, s.detail, wall.Seconds(), thr, fmtBytes(alloc))
	}
}

// PhaseSummary is the JSON form of one phase aggregate.
type PhaseSummary struct {
	Count       int64   `json:"count"`
	WallSeconds float64 `json:"wall_seconds"`
	Insts       int64   `json:"instructions,omitempty"`
	MInstPerSec float64 `json:"minst_per_sec,omitempty"`
	AllocBytes  int64   `json:"alloc_bytes"`
}

// HistogramSummary is the JSON form of one latency histogram: count,
// mean, interpolated p50/p95/p99, and the exact observed maximum, all in
// milliseconds.
type HistogramSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary is the JSON-serializable snapshot of a collector. Mem is
// present only after RecordMemStats.
type Summary struct {
	Phases     map[string]PhaseSummary     `json:"phases,omitempty"`
	Counters   map[string]int64            `json:"counters,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	Mem        *MemStats                   `json:"mem,omitempty"`
}

// Summary snapshots the collector.
func (c *Collector) Summary() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Phases:   make(map[string]PhaseSummary, len(c.phases)),
		Counters: make(map[string]int64, len(c.counters)),
	}
	for name, p := range c.phases {
		s.Phases[name] = PhaseSummary{
			Count:       p.Count,
			WallSeconds: p.Wall.Seconds(),
			Insts:       p.Insts,
			MInstPerSec: p.MInstPerSec(),
			AllocBytes:  p.AllocBytes,
		}
	}
	for name, v := range c.counters {
		s.Counters[name] = v
	}
	if len(c.hists) > 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.Histograms = make(map[string]HistogramSummary, len(c.hists))
		for name, h := range c.hists {
			hs := HistogramSummary{
				Count: h.count,
				P50Ms: ms(h.quantile(0.50)),
				P95Ms: ms(h.quantile(0.95)),
				P99Ms: ms(h.quantile(0.99)),
				MaxMs: ms(h.max),
			}
			if h.count > 0 {
				hs.MeanMs = ms(h.sum) / float64(h.count)
			}
			s.Histograms[name] = hs
		}
	}
	if c.mem != nil {
		m := *c.mem
		s.Mem = &m
	}
	return s
}

// WriteText renders the summary as an aligned text block (phases sorted by
// name, then counters), for end-of-run verbose output.
func (c *Collector) WriteText(w io.Writer) {
	if c == nil {
		return
	}
	s := c.Summary()
	names := make([]string, 0, len(s.Phases))
	for name := range s.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := s.Phases[name]
		fmt.Fprintf(w, "%-10s %5d calls %9.3fs", name, p.Count, p.WallSeconds)
		if p.MInstPerSec > 0 {
			fmt.Fprintf(w, "  %8.1f Minst/s", p.MInstPerSec)
		}
		fmt.Fprintf(w, "  +%s\n", fmtBytes(p.AllocBytes))
	}
	ctrs := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		ctrs = append(ctrs, name)
	}
	sort.Strings(ctrs)
	for _, name := range ctrs {
		fmt.Fprintf(w, "%-28s %d\n", name, s.Counters[name])
	}
	hists := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Histograms[name]
		fmt.Fprintf(w, "%-28s n=%d mean=%.2fms p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			name, h.Count, h.MeanMs, h.P50Ms, h.P95Ms, h.P99Ms, h.MaxMs)
	}
	if s.Mem != nil {
		fmt.Fprintf(w, "%-10s total=%s peak=%s inuse=%s gc=%d\n", "memory",
			fmtBytes(int64(s.Mem.TotalAllocBytes)), fmtBytes(int64(s.Mem.PeakHeapBytes)),
			fmtBytes(int64(s.Mem.HeapInuseBytes)), s.Mem.NumGC)
	}
}

var allocSampleName = "/gc/heap/allocs:bytes"

// heapAllocBytes reads the cumulative heap allocation counter; unlike
// runtime.ReadMemStats it does not stop the world.
func heapAllocBytes() uint64 {
	sample := []runtimemetrics.Sample{{Name: allocSampleName}}
	runtimemetrics.Read(sample)
	if sample[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

func fmtBytes(n int64) string {
	switch {
	case n < 0:
		return "0B"
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
}
