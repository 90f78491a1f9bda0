// Command deadload is the deterministic load generator for deadd: it
// fires a seeded mix of profile, predictor-evaluation, and experiment
// requests at a running daemon over -c closed-loop connections, honors
// 429 Retry-After backpressure, and prints a JSON report. -timeout bounds
// each request on the client side and is passed to the daemon as its
// deadline.
//
// Exit codes: 0 success; 1 when the run saw invalid responses (or, with
// -strict, any failed request); 2 on a usage error before any request
// is sent: -n or -c below 1, a negative -burst or -timeout, or an
// unknown -mix kind.
//
// Usage:
//
//	deadload [-addr url] [-n requests] [-c concurrency] [-mix kinds]
//	         [-burst n] [-timeout d] [-seed n] [-strict]
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
	mix := flag.String("mix", "", "comma-separated request kinds: profile,predeval,experiment (empty = all)")
	burst := flag.Int("burst", 1, "repeat each planned request this many consecutive times (duplicates overlap and share one build in the daemon's artifact store)")
	timeout := flag.Duration("timeout", time.Minute, "per-request client-side timeout, also passed as ?timeout= (0 = none)")
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
		Mix:         kinds,
		Burst:       *burst,
		Timeout:     *timeout,
		Seed:        *seed,
	})
	if err != nil && rep == nil {
		fmt.Fprintln(os.Stderr, err) // a usage error, which names the tool
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
