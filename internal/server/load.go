package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dip"
)

// LoadConfig drives RunLoad, the deterministic load generator behind
// cmd/deadload and the daemon smoke test.
type LoadConfig struct {
	// Requests is the total request count; Concurrency how many run at
	// once; Clients how many distinct client tokens the requests spread
	// over (fair-queue keys).
	Requests    int
	Concurrency int
	Clients     int
	// Mix selects the request kinds to cycle through; empty means
	// profile, predeval, and experiment. Valid kinds: "profile",
	// "predeval", "experiment".
	Mix []string
	// Burst repeats each planned spec this many consecutive times
	// (default 1). Bursts of identical requests land on the daemon
	// near-simultaneously through adjacent workers, so they meet in the
	// artifact store's single-flight builds; Requests stays the total
	// count.
	Burst int
	// Stream requests ?stream=1 chunked progress responses.
	Stream bool
	// Timeout is the per-request client-side timeout (0 = none) and is
	// also passed to the server as ?timeout=.
	Timeout time.Duration
	// Seed drives the deterministic request sequence.
	Seed uint64
	// MaxShedRetries bounds how often one request retries after a 429,
	// honoring the server's Retry-After (default 3).
	MaxShedRetries int
	// Verify, when set, is called with each 200 response's kind and
	// body; a non-nil error marks the response invalid.
	Verify func(kind string, body []byte) error
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Sent     int            `json:"sent"`
	OK       int            `json:"ok"`
	Shed     int            `json:"shed"`          // 429 responses observed (before any retry succeeded)
	Failed   int            `json:"failed"`        // requests that never got a 200
	Invalid  int            `json:"invalid"`       // 200 responses Verify rejected
	ByStatus map[int]int    `json:"by_status"`     // final status per request
	ByKind   map[string]int `json:"by_kind"`       // requests sent per kind
	Events   int            `json:"stream_events"` // NDJSON events seen across streamed responses
	// ShedNoHint counts 429 responses that arrived without a
	// Retry-After header — always zero against a conforming server.
	ShedNoHint int `json:"shed_no_hint,omitempty"`
}

// loadRNG is a small deterministic PRNG (splitmix64) so a seeded load
// run issues an identical request sequence every time.
type loadRNG struct{ state uint64 }

func (r *loadRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loadRequest is one planned request: kind, path, and body.
type loadRequest struct {
	kind string
	path string
	body []byte
}

// planRequests lays out the whole run's request sequence up front,
// deterministically from the seed, so two runs with the same config hit
// the server with the same work in the same order.
func planRequests(cfg LoadConfig) []loadRequest {
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = []string{"profile", "predeval", "experiment"}
	}
	benches := core.SuiteNames()
	// Cheap experiments only: the load generator is for exercising the
	// service machinery, not for regenerating every table.
	expIDs := []string{"e1", "e2", "e5"}
	burst := cfg.Burst
	if burst <= 0 {
		burst = 1
	}
	rng := &loadRNG{state: cfg.Seed ^ 0xdeadd}
	reqs := make([]loadRequest, cfg.Requests)
	for i := range reqs {
		if i%burst != 0 {
			reqs[i] = reqs[i-1]
			continue
		}
		kind := mix[(i/burst)%len(mix)]
		switch kind {
		case "predeval":
			b := benches[rng.next()%uint64(len(benches))]
			body, _ := json.Marshal(map[string]any{"bench": b, "flavor": dip.FlavorCFI})
			reqs[i] = loadRequest{kind, "/v1/predeval", body}
		case "experiment":
			id := expIDs[rng.next()%uint64(len(expIDs))]
			body, _ := json.Marshal(map[string]string{"id": id})
			reqs[i] = loadRequest{kind, "/v1/experiment", body}
		default: // profile
			b := benches[rng.next()%uint64(len(benches))]
			body, _ := json.Marshal(map[string]string{"bench": b})
			reqs[i] = loadRequest{"profile", "/v1/profile", body}
		}
	}
	return reqs
}

// RunLoad fires the configured request mix at a deadd daemon and
// reports what came back. Shed responses (429) are retried after the
// server's Retry-After hint, up to MaxShedRetries per request.
func RunLoad(ctx context.Context, baseURL string, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("deadload: -n must be positive")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Concurrency
	}
	if cfg.MaxShedRetries <= 0 {
		cfg.MaxShedRetries = 3
	}
	for _, kind := range cfg.Mix {
		switch kind {
		case "profile", "predeval", "experiment":
		default:
			return nil, fmt.Errorf("deadload: unknown mix kind %q", kind)
		}
	}
	reqs := planRequests(cfg)
	baseURL = strings.TrimSuffix(baseURL, "/")

	rep := &LoadReport{ByStatus: make(map[int]int), ByKind: make(map[string]int)}
	var mu sync.Mutex
	var nextIdx atomic.Int64
	client := &http.Client{}

	var wg sync.WaitGroup
	for wkr := 0; wkr < cfg.Concurrency; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			token := "client-" + strconv.Itoa(wkr%cfg.Clients)
			for {
				i := int(nextIdx.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				status, body, sheds, noHint, events := issue(ctx, client, baseURL, token, reqs[i], cfg)
				mu.Lock()
				rep.Sent++
				rep.ByKind[reqs[i].kind]++
				rep.ByStatus[status]++
				rep.Shed += sheds
				rep.ShedNoHint += noHint
				rep.Events += events
				switch {
				case status == http.StatusOK:
					rep.OK++
					if cfg.Verify != nil {
						if err := cfg.Verify(reqs[i].kind, body); err != nil {
							rep.Invalid++
						}
					}
				default:
					rep.Failed++
				}
				mu.Unlock()
			}
		}(wkr)
	}
	wg.Wait()
	return rep, ctx.Err()
}

// issue sends one request, retrying sheds per the server's Retry-After.
// It returns the final status, the response body (for streamed
// responses, the final result event's data), how many 429s it absorbed,
// and how many stream events it saw.
func issue(ctx context.Context, client *http.Client, baseURL, token string, lr loadRequest, cfg LoadConfig) (status int, body []byte, sheds, noHint, events int) {
	url := baseURL + lr.path
	q := ""
	if cfg.Stream {
		q = "?stream=1"
	}
	if cfg.Timeout > 0 {
		sep := "?"
		if q != "" {
			sep = "&"
		}
		q += sep + "timeout=" + cfg.Timeout.String()
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+q, bytes.NewReader(lr.body))
		if err != nil {
			return 0, nil, sheds, noHint, events
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-Token", token)
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, sheds, noHint, events
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			hint := resp.Header.Get("Retry-After")
			resp.Body.Close()
			sheds++
			if hint == "" {
				noHint++
			}
			if attempt >= cfg.MaxShedRetries {
				return resp.StatusCode, nil, sheds, noHint, events
			}
			wait := time.Second
			if ra, err := strconv.Atoi(hint); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			// Bound the honor delay so load runs stay snappy.
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
			select {
			case <-ctx.Done():
				return resp.StatusCode, nil, sheds, noHint, events
			case <-time.After(wait):
			}
			continue
		}
		if cfg.Stream && resp.StatusCode == http.StatusOK {
			st, b, n := drainStream(resp.Body)
			resp.Body.Close()
			return st, b, sheds, noHint, events + n
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b, sheds, noHint, events
	}
}

// drainStream consumes an NDJSON progress stream, returning the
// effective status (200 only if a result event arrived), the result
// event's data, and the total event count.
func drainStream(r io.Reader) (status int, result []byte, events int) {
	dec := json.NewDecoder(r)
	status = http.StatusInternalServerError
	for {
		var e struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
			Error string          `json:"error"`
		}
		if err := dec.Decode(&e); err != nil {
			break
		}
		events++
		switch e.Event {
		case "result":
			status, result = http.StatusOK, e.Data
		case "error":
			status = http.StatusInternalServerError
		}
	}
	return status, result, events
}
