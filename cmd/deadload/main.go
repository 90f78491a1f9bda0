// Command deadload is the deterministic load generator for deadd: it
// fires a seeded mix of profile, predictor-evaluation, and experiment
// requests at a running daemon, spreads them over client tokens so the
// fair queue has something to arbitrate, honors 429 Retry-After
// backpressure, and prints a JSON report. A nonzero exit means the run
// saw invalid responses (or, with -strict, any failed request).
//
// Usage:
//
//	deadload [-addr url] [-n requests] [-c concurrency] [-clients n]
//	         [-mix kinds] [-burst n] [-stream] [-timeout d] [-seed n]
//	         [-strict]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7311", "deadd base URL")
	n := flag.Int("n", 30, "total requests")
	c := flag.Int("c", 4, "concurrent requests")
	clients := flag.Int("clients", 0, "distinct client tokens (0 = one per concurrency slot)")
	mix := flag.String("mix", "", "comma-separated request kinds: profile,predeval,experiment (empty = all)")
	burst := flag.Int("burst", 1, "repeat each planned request this many consecutive times (duplicates overlap and share one build in the daemon's artifact store)")
	stream := flag.Bool("stream", false, "request ?stream=1 chunked progress responses")
	timeout := flag.Duration("timeout", time.Minute, "per-request timeout, passed as ?timeout= (0 = none)")
	seed := flag.Uint64("seed", 1, "seed for the deterministic request sequence")
	strict := flag.Bool("strict", false, "exit nonzero if any request failed, not just on invalid responses")
	flag.Parse()

	var kinds []string
	if *mix != "" {
		for _, k := range strings.Split(*mix, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds = append(kinds, k)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := server.RunLoad(ctx, *addr, server.LoadConfig{
		Requests:    *n,
		Concurrency: *c,
		Clients:     *clients,
		Mix:         kinds,
		Burst:       *burst,
		Stream:      *stream,
		Timeout:     *timeout,
		Seed:        *seed,
	})
	if err != nil && rep == nil {
		fmt.Fprintln(os.Stderr, "deadload:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadload:", err)
	}
	switch {
	case rep.Invalid > 0 || rep.ShedNoHint > 0:
		os.Exit(1)
	case *strict && rep.Failed > 0:
		os.Exit(1)
	}
}
