package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spire/internal/analysis"
	"spire/internal/cluster"
	"spire/internal/core"
	"spire/internal/engine"
	"spire/internal/serve"
	"spire/internal/wire"
)

// span is one timed call into a layer's public function. Spans of one
// request share Req. The serve handler and the router handler run the
// real served path; every other span re-runs one stage of that path on
// the same request right after it, because the program itself records
// no spans. OnPath is false for a stage the served path skips on this
// request (another encoding, an index-cache hit, no scheduler events,
// no router in front): it is timed on the same samples but counts in
// no self time or share.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	OnPath bool   `json:"on_path"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

type tracer struct {
	t0    time.Time
	req   int
	spans []span
}

// time runs f inside a span.
func (t *tracer) time(name, parent string, onPath bool, f func()) {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: parent,
		Start: int64(start), End: int64(end), OnPath: onPath})
}

// allocs measures heap bytes and objects allocated while f runs.
func allocs(f func()) (kb, objects float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024, float64(m1.Mallocs - m0.Mallocs)
}

// layerResult is the traced replay's output.
type layerResult struct {
	metrics  map[string]metric
	failures []string
	table    string
}

// replay holds the in-process copies of the served system.
type replay struct {
	w   workload
	m   *model
	tr  tracer
	ctx context.Context

	direct *serve.Server  // single node, as `spire serve`
	eng    *engine.Engine // the stage shadow of direct's engine
	router *cluster.Router
	// twins are shards with the same names as the router's and the
	// same request history, so a direct call to a twin sees the cache
	// state the router's relay saw.
	twins   map[string]string
	closers []func()
	hc      *http.Client
	sched   []core.SchedEvent // lock-convoy events for off-path combines

	allocKB, allocN, clusterKB []float64
	failures                   []string
}

func (rp *replay) newShard() (*serve.Server, error) {
	cfg := serve.Config{CacheEntries: rp.cacheEntries()}
	if rp.w.gate > 0 {
		cfg.MaxConcurrent, cfg.AdmissionQueue = rp.w.gate, -1
	}
	srv := serve.New(cfg)
	if _, err := srv.Models().Load(bytes.NewReader(rp.m.blob), "servebench"); err != nil {
		return nil, err
	}
	rp.closers = append(rp.closers, srv.Close)
	return srv, nil
}

// cacheEntries sizes the replay's index caches. A workload without a
// rotation misses on every request anyway; with caching off, the five
// in-process servers and the shadow engine do the same work without
// each holding every 20000-sample index it has built.
func (rp *replay) cacheEntries() int {
	if rp.w.rotation == 0 {
		return -1
	}
	return 0
}

func (rp *replay) newShardPair() (map[string]string, error) {
	urls := map[string]string{}
	for _, name := range []string{"s0", "s1"} {
		srv, err := rp.newShard()
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		rp.closers = append(rp.closers, ts.Close)
		urls[name] = ts.URL
	}
	return urls, nil
}

func (rp *replay) close() {
	for i := len(rp.closers) - 1; i >= 0; i-- {
		rp.closers[i]()
	}
}

func (rp *replay) fail(format string, args ...any) {
	if len(rp.failures) < 5 {
		rp.failures = append(rp.failures, fmt.Sprintf(format, args...))
	}
}

func (rp *replay) newRequest(body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
	r.Header.Set("Content-Type", rp.w.contentType())
	if rp.w.bin {
		r.Header.Set("Accept", wire.ContentTypeBin)
	}
	return r
}

// traceReplay replays the workload's requests in-process, one at a
// time, for up to cfg.seconds after the same warm-up as the timed run,
// and reduces the spans to per-layer metrics and a stage-share table
// against e2eP50, the untraced run's median latency. sched are the
// lock-convoy events, which off-path combines run on.
func traceReplay(ctx context.Context, cfg config, w workload, seed int64, m *model, reqs []request, refs [][]byte,
	sched []core.SchedEvent, e2eP50 float64) (*layerResult, error) {
	var err error
	rp := &replay{w: w, m: m, ctx: ctx, sched: sched,
		hc: &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 2}}}
	rp.eng = engine.New(engine.Options{CacheEntries: rp.cacheEntries()})
	defer rp.close()
	defer rp.hc.CloseIdleConnections()
	if rp.direct, err = rp.newShard(); err != nil {
		return nil, err
	}
	behind, err := rp.newShardPair()
	if err != nil {
		return nil, err
	}
	if rp.twins, err = rp.newShardPair(); err != nil {
		return nil, err
	}
	ccfg := cluster.Config{}
	for _, name := range []string{"s0", "s1"} {
		ccfg.Shards = append(ccfg.Shards, cluster.Shard{Name: name, URL: behind[name]})
	}
	if rp.router, err = cluster.NewRouter(ccfg, cluster.RouterOptions{}); err != nil {
		return nil, err
	}
	rp.closers = append(rp.closers, rp.router.Close)

	// Warm-up: every rotation body once, untraced, so repeats hit as
	// they do in the timed run; fresh bodies are never repeated within
	// the replay, so they miss as they do there.
	rp.tr.t0 = time.Now()
	for b := 0; b < w.rotation; b++ {
		rp.one(b, reqs[b], refs[b])
	}
	rp.tr.spans = nil
	rp.allocKB, rp.allocN, rp.clusterKB = nil, nil, nil

	// Fresh bodies must not come round again inside the replay.
	limit := 4000
	if w.fresh > 0 {
		limit = w.cycle()
	}
	budget := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for k := 0; k < limit && (k < minReplay || time.Now().Before(budget)); k++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rp.tr.req = k
		b := w.body(k)
		rp.one(b, reqs[b], refs[b])
	}

	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), rp.tr.spans); err != nil {
		return nil, err
	}
	return rp.reduce(e2eP50), nil
}

// minReplay is the fewest traced requests a replay makes, whatever
// its time budget, so every stage median has enough samples.
const minReplay = 20

// one replays request b through the single-node handler, its stages,
// the router and the router's stages, checking every response.
func (rp *replay) one(b int, r request, ref []byte) {
	w, tr := rp.w, &rp.tr

	// The served path, single node.
	rec := httptest.NewRecorder()
	hreq := rp.newRequest(r.body)
	kb, n := allocs(func() {
		tr.time("serve.handler", "", true, func() { rp.direct.Handler().ServeHTTP(rec, hreq) })
	})
	rp.allocKB, rp.allocN = append(rp.allocKB, kb), append(rp.allocN, n)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref) {
		rp.fail("replay body %d: handler answered %d, not the reference", b, rec.Code)
	}

	// Its stages, in the handler's order.
	bin, js, err := bothEncodings(w.bin, r)
	if err != nil {
		rp.fail("replay body %d: %v", b, err)
		return
	}
	var (
		samples []core.Sample
		decErr  error
	)
	tr.time("wire.decode", "serve.handler", w.bin, func() {
		var wreq *wire.EstimateRequest
		if wreq, decErr = wire.DecodeEstimateRequest(bin); decErr == nil && w.bin {
			samples = wreq.Samples
		}
	})
	tr.time("serve.decode", "serve.handler", !w.bin, func() {
		var sreq serve.EstimateRequest
		dec := json.NewDecoder(bytes.NewReader(js))
		if err := dec.Decode(&sreq); err != nil {
			decErr = err
		} else if _, err := dec.Token(); err != io.EOF {
			decErr = fmt.Errorf("trailing data")
		} else if !w.bin {
			samples = sreq.Samples
		}
	})
	if decErr != nil {
		rp.fail("replay body %d: decode: %v", b, decErr)
		return
	}
	var (
		ix  *core.WorkloadIndex
		hit bool
		est *core.Estimation
	)
	tr.time("engine.index", "serve.handler", true, func() { ix, hit = rp.eng.Index(samples) })
	tr.time("core.index", "engine.index", !hit, func() { core.IndexWorkload(core.Dataset{Samples: samples}) })
	tr.time("core.estimate", "serve.handler", true, func() {
		est, err = rp.eng.EstimateIndexed(rp.ctx, rp.m.ens, ix, core.EstimateOptions{})
	})
	if err != nil {
		rp.fail("replay body %d: estimate: %v", b, err)
		return
	}
	events, withSched := r.sched, len(r.sched) > 0
	if !withSched {
		events = rp.sched
	}
	var combined *core.CombinedReport
	tr.time("analysis.combine", "serve.handler", withSched, func() { combined, err = analysis.Combine(est, events) })
	if withSched {
		est.Combined = combined
	}
	var binResp, jsonResp []byte
	tr.time("wire.encode", "serve.handler", w.bin, func() {
		binResp = wire.AppendEstimateResponse(nil, &wire.EstimateResponse{Model: rp.m.id, Estimation: est})
	})
	tr.time("serve.encode", "serve.handler", !w.bin, func() {
		jsonResp, err = json.Marshal(serve.EstimateResponse{Model: rp.m.id, Estimation: est})
		jsonResp = append(jsonResp, '\n')
	})
	// The handler hashes the workload a second time, to key its
	// degraded-mode response cache.
	tr.time("engine.hash", "serve.handler", true, func() { engine.WorkloadKey(samples) })
	got := jsonResp
	if w.bin {
		got = binResp
	}
	if !bytes.Equal(got, ref) {
		rp.fail("replay body %d: stage-by-stage response differs from the reference", b)
	}

	// The routed path: router in front of two shards, then a direct
	// call with the router's upstream body to the twin of the shard
	// that answered.
	rrec := httptest.NewRecorder()
	rreq := rp.newRequest(r.body)
	rkb, _ := allocs(func() {
		tr.time("cluster.handler", "", w.routed, func() { rp.router.Handler().ServeHTTP(rrec, rreq) })
	})
	if rrec.Code != http.StatusOK || !bytes.Equal(rrec.Body.Bytes(), ref) {
		rp.fail("replay body %d: router answered %d, not the reference", b, rrec.Code)
	}
	var wreq *wire.EstimateRequest
	tr.time("cluster.decode", "cluster.handler", w.routed, func() {
		if w.bin {
			wreq, err = wire.DecodeEstimateRequest(r.body)
			return
		}
		var sreq serve.EstimateRequest
		if err = json.Unmarshal(r.body, &sreq); err == nil {
			wreq = &wire.EstimateRequest{Samples: sreq.Samples, Sched: sreq.Sched}
		}
	})
	if err != nil {
		rp.fail("replay body %d: router decode: %v", b, err)
		return
	}
	tr.time("cluster.hash", "cluster.handler", w.routed, func() { engine.WorkloadKey(wreq.Samples) })
	var up []byte
	tr.time("cluster.encode", "cluster.handler", w.routed, func() { up = wire.AppendEstimateRequest(nil, wreq) })
	twin := rp.twins[rrec.Header().Get("X-Spire-Shard")]
	var (
		body   []byte
		status int
	)
	dkb, _ := allocs(func() {
		tr.time("cluster.shard_call", "cluster.handler", w.routed, func() { status, body, err = rp.postTwin(twin, up) })
	})
	rp.clusterKB = append(rp.clusterKB, rkb-dkb)
	if err != nil || status != http.StatusOK || !bytes.Equal(body, ref) {
		rp.fail("replay body %d: direct shard call answered %d (%v), not the reference", b, status, err)
	}
}

// bothEncodings returns r's body in SPB1 and in JSON; the one the
// workload does not send is encoded here, outside every span.
func bothEncodings(bin bool, r request) ([]byte, []byte, error) {
	other, err := encodeRequest(!bin, r.samples, r.sched)
	if err != nil {
		return nil, nil, err
	}
	if bin {
		return r.body, other, nil
	}
	return other, r.body, nil
}

func (rp *replay) postTwin(base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(rp.ctx, http.MethodPost, base+"/v1/estimate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBin)
	if rp.w.bin {
		req.Header.Set("Accept", wire.ContentTypeBin)
	}
	res, err := rp.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	return res.StatusCode, raw, err
}

// handlerStages are the spans inside serve.handler, in its order;
// core.index runs inside engine.index.
var handlerStages = []string{"wire.decode", "serve.decode", "engine.index", "core.estimate",
	"analysis.combine", "wire.encode", "serve.encode", "engine.hash"}

// reqSpans are one request's spans by name.
type reqSpans map[string]span

// ms is a span's duration, 0 when absent.
func (r reqSpans) ms(name string) float64 { return r[name].ms() }

// on is a span's duration when the served path ran it, 0 otherwise.
func (r reqSpans) on(name string) float64 {
	if s := r[name]; s.OnPath {
		return s.ms()
	}
	return 0
}

// self is the single-node handler minus its on-path stages.
func (r reqSpans) self() float64 {
	v := r.ms("serve.handler")
	for _, name := range handlerStages {
		v -= r.on(name)
	}
	return v
}

// overhead is the router handler minus the direct shard call.
func (r reqSpans) overhead() float64 { return r.ms("cluster.handler") - r.ms("cluster.shard_call") }

// reduce turns the replay's spans into per-layer metrics and the
// stage-share table. Per-layer metrics are medians over the traced
// requests of a span, or of a per-request difference of spans.
func (rp *replay) reduce(e2eP50 float64) *layerResult {
	var reqs []reqSpans
	for _, s := range rp.tr.spans {
		if len(reqs) == 0 || reqs[len(reqs)-1]["serve.handler"].Req != s.Req {
			reqs = append(reqs, reqSpans{})
		}
		reqs[len(reqs)-1][s.Name] = s
	}
	over := func(f func(reqSpans) float64) []float64 {
		out := make([]float64, len(reqs))
		for i, r := range reqs {
			out[i] = f(r)
		}
		return out
	}
	med := func(name string) float64 { return median(over(func(r reqSpans) float64 { return r.ms(name) })) }

	out := &layerResult{metrics: map[string]metric{}, failures: rp.failures}
	put := func(name string, v float64, unit string) { out.metrics[name] = metric{Value: v, Unit: unit} }
	for _, name := range []string{"wire.decode", "wire.encode", "serve.decode", "serve.encode",
		"engine.hash", "engine.index", "core.index", "core.estimate", "analysis.combine",
		"cluster.decode", "cluster.hash", "cluster.encode", "serve.handler", "cluster.handler"} {
		put(name+"_ms", med(name), "ms")
	}
	put("serve.self_ms", median(over(reqSpans.self)), "ms")
	put("serve.alloc_kb", median(rp.allocKB), "KiB")
	put("serve.allocs", median(rp.allocN), "count")
	put("cluster.overhead_ms", median(over(reqSpans.overhead)), "ms")
	put("cluster.alloc_kb", median(rp.clusterKB), "KiB")
	put("replay.requests", float64(len(reqs)), "count")
	// The entry handler is the one clients talk to.
	entry := med("serve.handler")
	if rp.w.routed {
		entry = med("cluster.handler")
	}
	put("serve.transport_ms", e2eP50-entry, "ms")
	put("core.estimate_share", med("core.estimate")/e2eP50, "ratio")
	out.table = rp.shareTable(reqs, e2eP50, e2eP50-entry)
	return out
}

// shareTable lists where a request's time goes: each stage's self time
// on the served path, as a mean per request (means add up; medians do
// not), and its share of the untraced e2e median latency.
func (rp *replay) shareTable(reqs []reqSpans, e2eP50, transport float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stage shares, %s: %d traced requests, e2e latency_p50_ms %.4f\n", rp.w.name, len(reqs), e2eP50)
	fmt.Fprintf(&sb, "%-48s %12s %8s\n", "stage (self time on the served path)", "ms/request", "share")
	total := 0.0
	row := func(name string, f func(reqSpans) float64) {
		var sum float64
		for _, r := range reqs {
			sum += f(r)
		}
		mean := sum / float64(max(len(reqs), 1))
		total += mean
		fmt.Fprintf(&sb, "%-48s %12.4f %7.2f%%\n", name, mean, 100*mean/e2eP50)
	}
	decode, encode := "serve.decode", "serve.encode"
	if rp.w.bin {
		decode, encode = "wire.decode", "wire.encode"
	}
	if rp.w.routed {
		row("cluster.decode", func(r reqSpans) float64 { return r.ms("cluster.decode") })
		row("cluster.hash", func(r reqSpans) float64 { return r.ms("cluster.hash") })
		row("cluster.encode", func(r reqSpans) float64 { return r.ms("cluster.encode") })
		row("cluster.self (overhead - decode, hash, encode)", func(r reqSpans) float64 {
			return r.overhead() - r.ms("cluster.decode") - r.ms("cluster.hash") - r.ms("cluster.encode")
		})
		row("cluster.hop (shard call - shard handler)", func(r reqSpans) float64 {
			return r.ms("cluster.shard_call") - r.ms("serve.handler")
		})
	}
	row(decode, func(r reqSpans) float64 { return r.on(decode) })
	row("engine.hash (x2: index key, response-cache key)", func(r reqSpans) float64 { return 2 * r.ms("engine.hash") })
	row("engine.index (self: lookup and insert)", func(r reqSpans) float64 {
		return r.ms("engine.index") - r.ms("engine.hash") - r.on("core.index")
	})
	row("core.index", func(r reqSpans) float64 { return r.on("core.index") })
	row("core.estimate", func(r reqSpans) float64 { return r.ms("core.estimate") })
	row("analysis.combine", func(r reqSpans) float64 { return r.on("analysis.combine") })
	row(encode, func(r reqSpans) float64 { return r.on(encode) })
	row("serve.self (handler - stages)", reqSpans.self)
	fmt.Fprintf(&sb, "%-48s %12.4f %7.2f%%\n", "serve.transport_ms (e2e p50 - handler p50)", transport, 100*transport/e2eP50)
	total += transport
	fmt.Fprintf(&sb, "%-48s %12.4f %7.2f%%\n", "sum", total, 100*total/e2eP50)
	return sb.String()
}

func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
