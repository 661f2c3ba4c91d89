package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spire/internal/analysis"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/serve"
	"spire/internal/wire"
)

// reference computes the exact response body the server must return
// for r: the engine's estimate, the combined off-CPU report when r
// carries scheduler events, encoded as serve's handler encodes it.
func reference(ctx context.Context, eng *engine.Engine, m *model, bin bool, r request) ([]byte, error) {
	est, err := eng.Estimate(ctx, m.ens, core.Dataset{Samples: r.samples}, core.EstimateOptions{})
	if err != nil {
		return nil, err
	}
	if len(r.sched) > 0 {
		if est.Combined, err = analysis.Combine(est, r.sched); err != nil {
			return nil, err
		}
	}
	return encodeResponse(bin, m.id, est)
}

// encodeResponse encodes an estimate response in either wire format.
func encodeResponse(bin bool, modelID string, est *core.Estimation) ([]byte, error) {
	if bin {
		return wire.AppendEstimateResponse(nil, &wire.EstimateResponse{Model: modelID, Estimation: est}), nil
	}
	raw, err := json.Marshal(serve.EstimateResponse{Model: modelID, Estimation: est})
	return append(raw, '\n'), err
}

func references(ctx context.Context, m *model, w workload, reqs []request) ([][]byte, error) {
	// Uncached: every reference is computed from scratch.
	eng := engine.New(engine.Options{CacheEntries: -1})
	refs := make([][]byte, len(reqs))
	for i, r := range reqs {
		ref, err := reference(ctx, eng, m, w.bin, r)
		if err != nil {
			return nil, fmt.Errorf("reference for body %d: %w", i, err)
		}
		refs[i] = ref
	}
	return refs, nil
}

// loadResult is what the clients saw in one closed-loop phase.
type loadResult struct {
	attempted int
	failed    int
	okLat     []time.Duration // correct 200s, served or degraded
	okDone    []time.Duration // when each of those completed, since the start
	shedLat   []time.Duration // 429s with Retry-After
	allDone   []time.Duration // when every answer completed, since the start
	degraded  int
	withSched int
	failures  []string // the first few failure reasons
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	return &client{
		url: base + "/v1/estimate",
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and returns the status, body and headers.
func (c *client) post(ctx context.Context, w workload, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", w.contentType())
	if w.bin {
		req.Header.Set("Accept", wire.ContentTypeBin)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	return res.StatusCode, raw, res.Header, err
}

// closedLoop runs len(clients) callers, each sending its next request
// as soon as the previous one is answered, from request number *next
// until d has passed or, when limit >= 0, request limit is reached. Every answer is checked: a 200 must equal the
// reference byte for byte, a 429 must carry Retry-After and is allowed
// only for a fresh body on a workload that sheds.
func closedLoop(ctx context.Context, w workload, clients []*client, reqs []request, refs [][]byte, next *atomic.Int64, d time.Duration, limit int64) loadResult {
	var (
		mu  sync.Mutex
		out loadResult
		wg  sync.WaitGroup
	)
	fail := func(res *loadResult, format string, args ...any) {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, fmt.Sprintf(format, args...))
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var res loadResult
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				if limit >= 0 && k >= limit {
					break
				}
				b := w.body(int(k))
				res.attempted++
				if len(reqs[b].sched) > 0 {
					res.withSched++
				}
				t0 := time.Now()
				status, body, hdr, err := c.post(ctx, w, reqs[b].body)
				lat := time.Since(t0)
				res.allDone = append(res.allDone, t0.Add(lat).Sub(start))
				switch {
				case err != nil:
					fail(&res, "body %d: %v", b, err)
				case status == http.StatusOK && bytes.Equal(body, refs[b]):
					res.okLat = append(res.okLat, lat)
					res.okDone = append(res.okDone, t0.Add(lat).Sub(start))
					if hdr.Get("X-Spire-Degraded") == "cache" {
						res.degraded++
					}
				case status == http.StatusOK:
					fail(&res, "body %d: 200 body differs from the reference", b)
				case status == http.StatusTooManyRequests && hdr.Get("Retry-After") == "":
					fail(&res, "body %d: 429 without Retry-After", b)
				case status == http.StatusTooManyRequests && w.wantShed && w.isFresh(b):
					res.shedLat = append(res.shedLat, lat)
				default:
					fail(&res, "body %d: unexpected status %d: %.200s", b, status, body)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.attempted += res.attempted
			out.failed += res.failed
			out.okLat = append(out.okLat, res.okLat...)
			out.okDone = append(out.okDone, res.okDone...)
			out.allDone = append(out.allDone, res.allDone...)
			out.shedLat = append(out.shedLat, res.shedLat...)
			out.degraded += res.degraded
			out.withSched += res.withSched
			out.failures = append(out.failures, res.failures...)
		}(c)
	}
	wg.Wait()
	return out
}

// windowed splits the phase into whole seconds and returns the medians
// over those windows of the correct responses per second, of each
// window's median latency (ms) and of the serving processes' CPU time
// per answer (ms); cpuAt holds their cumulative CPU seconds at the
// start of each window and at the end of the last. Medians over short
// windows keep a brief slowdown of the shared machine from moving the
// run's figures.
func (lr loadResult) windowed(cpuAt []float64) (rps, p50, cpuPerReq float64) {
	n := len(cpuAt) - 1
	lats := make([][]time.Duration, n)
	answers := make([]float64, n)
	for i, done := range lr.okDone {
		if k := int(done / time.Second); k < n {
			lats[k] = append(lats[k], lr.okLat[i])
		}
	}
	for _, done := range lr.allDone {
		if k := int(done / time.Second); k < n {
			answers[k]++
		}
	}
	var rates, meds, cpus []float64
	for k := 0; k < n; k++ {
		rates = append(rates, windowRate(lr.okDone, k))
		meds = append(meds, quantile(lats[k], 0.5))
		cpus = append(cpus, (cpuAt[k+1]-cpuAt[k])*1000/max(answers[k], 1))
	}
	return median(rates), median(meds), median(cpus)
}

// windowRate is the completion rate inside second k: completions after
// the window's first one, over the time from that one to the last.
func windowRate(done []time.Duration, k int) float64 {
	var first, last time.Duration
	n := 0
	for _, d := range done {
		if int(d/time.Second) != k {
			continue
		}
		if n == 0 || d < first {
			first = d
		}
		if n == 0 || d > last {
			last = d
		}
		n++
	}
	if n < 2 || last == first {
		return 0
	}
	return float64(n-1) / (last - first).Seconds()
}

// quantile returns the nearest-rank q-quantile of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(int(math.Ceil(q*float64(len(s))))-1, 0)
	return float64(s[i]) / float64(time.Millisecond)
}
