// Package client is the HTTP side of the remote artifact tier: a thin
// cache client that fetches framed artifact payloads from a deadd
// daemon's read-only /v1/artifact endpoint. It implements
// artifact.RemoteTier, so attaching it to a store (Store.SetRemote, or
// the -remote-cache flag on the CLI tools) makes the daemon's cache the
// third lookup tier behind memory and disk.
//
// Integrity is end to end: payloads travel in the same
// magic/version/length/CRC-32C frame the disk tier writes
// (artifact.Frame), and Fetch verifies the frame before handing bytes to
// a codec — a corrupt or truncated response is an error the store
// degrades to a local rebuild, never a wrong answer. The fault site
// "client.fetch" injects transport errors and in-flight corruption for
// chaos coverage.
package client

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/faults"
)

// SiteFetch fires once per remote fetch attempt; Corrupt rules mangle
// the response bytes in flight, which frame verification must catch.
const SiteFetch faults.Site = "client.fetch"

func init() { faults.RegisterSite(SiteFetch) }

// maxPayload bounds a fetched artifact image. The largest real artifacts
// (columnar profiles) are tens of megabytes; anything past this is a
// misbehaving server, not a cache entry.
const maxPayload = 1 << 31

// Cache is a remote artifact cache backed by a deadd daemon.
type Cache struct {
	base string
	hc   *http.Client
}

// New validates baseURL (e.g. "http://127.0.0.1:7333") and returns a
// cache client for the daemon at that address. No connection is made
// until the first fetch.
func New(baseURL string) (*Cache, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: remote cache URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: remote cache URL %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: remote cache URL %q: missing host", baseURL)
	}
	return &Cache{
		base: strings.TrimRight(u.String(), "/"),
		// The timeout covers the whole exchange; artifact payloads are at
		// most tens of megabytes, so a slow-but-alive daemon still fits.
		hc: &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// BaseURL returns the daemon address this cache talks to.
func (c *Cache) BaseURL() string { return c.base }

func (c *Cache) entryURL(key artifact.Key) string {
	return c.base + "/v1/artifact/" + url.PathEscape(string(key.Kind)) + "/" + url.PathEscape(key.Digest)
}

// Fetch retrieves the payload stored under key, verifying the transport
// frame. A 404 is a clean miss (found=false, no error); any transport,
// status, or verification failure is an error the store treats as a
// degraded lookup.
func (c *Cache) Fetch(key artifact.Key) ([]byte, bool, error) {
	if err := faults.Fire(SiteFetch); err != nil {
		return nil, false, fmt.Errorf("client: fetch %s: %w", key, err)
	}
	resp, err := c.hc.Get(c.entryURL(key))
	if err != nil {
		return nil, false, fmt.Errorf("client: fetch %s: %w", key, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("client: fetch %s: daemon returned %s", key, resp.Status)
	}
	framed, err := io.ReadAll(io.LimitReader(resp.Body, maxPayload))
	if err != nil {
		return nil, false, fmt.Errorf("client: fetch %s: %w", key, err)
	}
	// Model in-flight corruption: the daemon framed intact bytes, the wire
	// flipped some. Verification below must reject the mangled image.
	faults.Mangle(SiteFetch, framed)
	payload, err := artifact.Unframe(framed)
	if err != nil {
		return nil, false, fmt.Errorf("client: fetch %s: %w", key, err)
	}
	return payload, true, nil
}

// Cache implements artifact.RemoteTier.
var _ artifact.RemoteTier = (*Cache)(nil)
