// Command servebench is SPIRE's served-path benchmark. It builds
// request bodies from a seed's simulated suite, drives the real
// `spire serve` and `spire route` binaries over loopback HTTP with a
// closed loop of nproc clients, checks every answer against an
// in-process reference, and reports end-to-end metrics. With -trace 1
// it instead reports per-layer metrics from an in-process replay of the
// same requests with spans around each layer's public functions.
//
// Run it through run.sh, which builds both binaries; README.md has the
// workloads, metrics and a recorded baseline.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// a claimed gain is confirmed on it. Every record names it.
const heldOutSeed = 9001

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes the machine a record was measured on.
type host struct {
	NProc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

// record is one run in a recording (one JSON line). Metrics holds every
// metric the run measured, including those BENCHMARK.json leaves out.
type record struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	HeldOutSeed int64    `json:"heldout_seed"`
	Trace       bool     `json:"trace"`
	Seconds     int      `json:"seconds"`
	Host        host     `json:"host"`
	Failures    []string `json:"failures,omitempty"`
	result
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type config struct {
	spire   string // spire binary
	out     string // scratch directory inside the checkout
	seconds int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.spire, "spire", "", "spire binary to benchmark")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for models, spans and logs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed (runs use seed, seed+1, ...)")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced replay")
	runs := fs.Int("runs", 1, "runs per workload")
	recordPath := fs.String("record", "", "append every run to this JSON-lines recording")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		if fs.NArg() != 3 || fs.Arg(0) != "compare" {
			return errors.New("usage: [flags] | compare <parent.jsonl> <change.jsonl>")
		}
		return compareFiles(os.Stdout, spec, fs.Arg(1), fs.Arg(2))
	}
	if cfg.spire == "" || cfg.seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -spire, -seconds >= 1, -runs >= 1 and -trace 0 or 1")
	}
	list := allWorkloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		list = []workload{w}
	}
	want := spec.EndToEnd
	if *trace == 1 {
		want = spec.PerLayer
	}

	var last *record
	for i := 0; i < *runs; i++ {
		for _, w := range list {
			rec, err := runOnce(ctx, cfg, w, *seed+int64(i), *trace == 1)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, *seed+int64(i), err)
			}
			printRecord(rec, want)
			if *recordPath != "" {
				if err := appendRecord(*recordPath, rec); err != nil {
					return err
				}
			}
			last = rec
		}
	}
	if len(list) > 1 || *runs > 1 {
		return nil
	}
	// The result line: exactly the metrics BENCHMARK.json
	// lists for this kind of run.
	out := result{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]metric{}}
	for _, ms := range want {
		m, ok := last.Metrics[ms.Name]
		if !ok {
			return fmt.Errorf("run did not measure %s", ms.Name)
		}
		if m.Unit != ms.Unit {
			return fmt.Errorf("%s measured in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit)
		}
		out.Metrics[ms.Name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRecord prints a run's metrics by name with their units: first
// the ones BENCHMARK.json lists, then the rest.
func printRecord(rec *record, want []metricSpec) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer"
	}
	fmt.Printf("# %s seed %d (%s): correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, kind, rec.Correct, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Printf("#   failure: %s\n", f)
	}
	listed := map[string]bool{}
	for _, ms := range want {
		listed[ms.Name] = true
		if m, ok := rec.Metrics[ms.Name]; ok {
			fmt.Printf("%-24s %-28s %14.4f %s\n", rec.Workload, ms.Name, m.Value, m.Unit)
		}
	}
	var rest []string
	for name := range rec.Metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		m := rec.Metrics[name]
		fmt.Printf("%-24s %-28s %14.4f %s\n", rec.Workload, name, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), Go: runtime.Version()}
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

// median returns the median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// runOnce sets up w for seed, warms it, measures it for cfg.seconds
// and, when traced, replays it in-process with spans.
func runOnce(ctx context.Context, cfg config, w workload, seed int64, traced bool) (*record, error) {
	dir := filepath.Join(cfg.out, "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, d, setups, err := setUp(w, seed, cfg.spire, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	sched, err := lockConvoySched()
	if err != nil {
		return nil, err
	}
	reqs, err := generate(w, seed, m.pool, sched)
	if err != nil {
		return nil, err
	}
	refs, err := references(ctx, m, w, reqs)
	if err != nil {
		return nil, err
	}
	if !traced {
		// Only the replay needs the decoded samples; without them the
		// load generator's heap holds no pointers for its GC to scan.
		for i := range reqs {
			reqs[i].samples = nil
		}
	}

	rec := &record{Workload: w.name, Seed: seed, HeldOutSeed: heldOutSeed, Trace: traced,
		Seconds: cfg.seconds, Host: hostInfo()}
	rec.Metrics = map[string]metric{}
	put := func(name string, v float64, unit string) { rec.Metrics[name] = metric{Value: v, Unit: unit} }

	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient(d.entry.url())
		defer clients[i].close()
	}
	// Warm-up: one client sends every body once, in order, so each
	// rotation body has been served (and cached) and the fresh pools
	// have filled the server's caches; then all clients run briefly to
	// open their connections. The timed phase continues the request
	// numbering, so fresh bodies stay evicted.
	var next atomic.Int64
	warm := closedLoop(ctx, w, clients[:1], reqs, refs, &next, time.Hour, int64(w.cycle()))
	if w.routed {
		// The router's bounded-load walk may send a body to either
		// shard, so every shard gets every body once, directly.
		for _, sh := range d.shards {
			c := newClient(sh.url())
			lr := closedLoop(ctx, w, []*client{c}, reqs, refs, &atomic.Int64{}, time.Hour, int64(w.cycle()))
			c.close()
			warm.attempted, warm.failed = warm.attempted+lr.attempted, warm.failed+lr.failed
			warm.failures = append(warm.failures, lr.failures...)
		}
	}
	warm2 := closedLoop(ctx, w, clients, reqs, refs, &next, warmUpTime, -1)

	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// CPU time is read at every second of the timed phase.
	cpuAt := make([]float64, cfg.seconds+1)
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for i := range cpuAt {
			if i > 0 {
				<-tick.C
			}
			v, err := d.cpuSeconds()
			if err != nil && cpuErr == nil {
				cpuErr = err
			}
			cpuAt[i] = v
		}
	}()
	lr := closedLoop(ctx, w, clients, reqs, refs, &next, time.Duration(cfg.seconds)*time.Second, -1)
	<-sampled
	if cpuErr != nil {
		return nil, cpuErr
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	rec.Attempted = warm.attempted + warm2.attempted + lr.attempted
	rec.Failed = warm.failed + warm2.failed + lr.failed
	rec.Failures = append(append(warm.failures, warm2.failures...), lr.failures...)
	delta := after.sub(before)
	hits, misses := delta["spire_estimate_cache_hits_total"], delta["spire_estimate_cache_misses_total"]
	admitted, rejected := delta["spire_admission_admitted_total"], delta["spire_admission_rejected_total"]
	hitShare := hits / max(hits+misses, 1)
	shedShare := rejected / max(admitted+rejected, 1)
	rec.Failures = append(rec.Failures, w.checkProperties(hitShare, shedShare, lr)...)
	if w.wantShed && int(rejected) != len(lr.shedLat)+lr.degraded+lr.failed {
		rec.Failures = append(rec.Failures, fmt.Sprintf("books: server rejected %.0f, clients saw %d 429s and %d degraded 200s",
			rejected, len(lr.shedLat), lr.degraded))
	}

	rps, p50, cpuPerReq := lr.windowed(cpuAt)
	setupTotals := make([]float64, len(setups))
	for i, s := range setups {
		setupTotals[i] = s.total
	}
	if !traced {
		put("throughput_rps", rps, "1/s")
		put("latency_p50_ms", p50, "ms")
		put("latency_p95_ms", quantile(lr.okLat, 0.95), "ms")
		put("latency_p99_ms", quantile(lr.okLat, 0.99), "ms")
		if len(lr.shedLat) > 0 {
			put("shed_p50_ms", quantile(lr.shedLat, 0.5), "ms")
		}
		put("error_rate", float64(lr.failed)/float64(max(lr.attempted, 1)), "ratio")
		put("server_cpu_ms_per_req", cpuPerReq, "ms")
		put("server_rss_peak_mb", rss, "MiB")
		put("setup_s", median(setupTotals), "s")
		put("responses", float64(len(lr.okLat)), "count")
	} else {
		d.stop()
		layers, err := traceReplay(ctx, cfg, w, seed, m, reqs, refs, sched, p50)
		if err != nil {
			return nil, err
		}
		for name, mv := range layers.metrics {
			rec.Metrics[name] = mv
		}
		rec.Failures = append(rec.Failures, layers.failures...)
		var sim, train, ready []float64
		for _, s := range setups {
			sim, train, ready = append(sim, s.simulate), append(train, s.train), append(ready, s.ready)
		}
		put("experiments.simulate_s", median(sim), "s")
		put("core.train_s", median(train), "s")
		put("serve.ready_s", median(ready), "s")
		put("engine.index_hit_share", hitShare, "ratio")
		put("admission.shed_share", shedShare, "ratio")
		put("serve.degraded_share", delta["spire_estimates_degraded_total"]/max(admitted+rejected, 1), "ratio")
		put("analysis.sched_share", float64(lr.withSched)/float64(max(lr.attempted, 1)), "ratio")
		fmt.Print(layers.table)
	}
	rec.Correct = len(rec.Failures) == 0 && rec.Failed == 0
	return rec, nil
}

// warmUpTime is the concurrent part of the warm-up.
const warmUpTime = time.Second

// checkProperties asserts the workload's stated traffic properties.
func (w workload) checkProperties(hitShare, shedShare float64, lr loadResult) []string {
	var out []string
	if hitShare < w.hitMin || hitShare > w.hitMax {
		out = append(out, fmt.Sprintf("index hit share %.4f outside [%g, %g]", hitShare, w.hitMin, w.hitMax))
	}
	if w.wantShed && shedShare == 0 {
		out = append(out, "no request was shed")
	}
	if !w.wantShed && shedShare != 0 {
		out = append(out, fmt.Sprintf("shed share %.4f on a workload that must not shed", shedShare))
	}
	if w.schedEvery > 0 {
		share := float64(lr.withSched) / float64(max(lr.attempted, 1))
		if want := 1 / float64(w.schedEvery); share < want-0.01 || share > want+0.01 {
			out = append(out, fmt.Sprintf("sched-bearing share %.4f, want %.2f", share, want))
		}
	}
	if len(lr.okLat) < 200 {
		out = append(out, fmt.Sprintf("only %d correct responses; latency percentiles need at least 200", len(lr.okLat)))
	}
	return out
}
