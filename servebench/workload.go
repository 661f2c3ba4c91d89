package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"spire/internal/core"
	"spire/internal/serve"
	"spire/internal/wire"
	"spire/internal/workloads"
)

// workload is one traffic mix. Requests are numbered k = 0, 1, ... in
// the order clients take them; body(k) maps a request to its body.
type workload struct {
	name string
	// bin selects SPB1 for both request and response; JSON otherwise.
	bin bool
	// samples per request body.
	samples int
	// rotation repeats this many workloads, so after warm-up every
	// request is an index-cache hit.
	rotation int
	// fresh cycles through this many distinct workloads. The pool is
	// larger than the server's index LRU (128 entries) and degraded
	// response cache (64 entries), so a fresh body has always been
	// evicted before it comes round again: the server cannot tell it
	// from a never-seen workload, and the run asserts the resulting hit
	// share from /metrics.
	fresh int
	// schedEvery puts the lock-convoy roster's scheduler events on
	// every schedEvery-th rotation body; 0 sends none.
	schedEvery int
	// routed puts `spire route` in front of two shards.
	routed bool
	// gate, when positive, runs `spire serve -max-inflight gate
	// -admission-queue -1`: at most gate estimations at once and no
	// waiting room, so the rest are shed.
	gate int

	// The workload's stated properties, checked on every run from the
	// servers' /metrics over the timed window: the index-cache hit
	// share lies in [hitMin, hitMax], and wantShed requires shedding.
	hitMin, hitMax float64
	wantShed       bool
}

// The four traffic mixes. README.md says why each was chosen and which
// layers it stresses or bypasses.
var allWorkloads = []workload{
	{name: "bin-20k-fresh", bin: true, samples: 20000, fresh: 160, hitMax: 0},
	{name: "json-200-repeat", samples: 200, rotation: 8, schedEvery: 4, hitMin: 0.99, hitMax: 1},
	{name: "routed-bin-20k-repeat", bin: true, samples: 20000, rotation: 8, routed: true, hitMin: 0.99, hitMax: 1},
	{name: "overload-json-2k", samples: 2000, rotation: 8, fresh: 256, hitMax: 1, wantShed: true, gate: 1},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// bodies counts the distinct request bodies: rotation ones first, then
// fresh ones.
func (w workload) bodies() int { return w.rotation + w.fresh }

// body maps request k to its body index. A workload with both pools
// alternates them: even requests rotate, odd requests are fresh.
func (w workload) body(k int) int {
	switch {
	case w.fresh == 0:
		return k % w.rotation
	case w.rotation == 0:
		return k % w.fresh
	case k%2 == 0:
		return (k / 2) % w.rotation
	default:
		return w.rotation + (k/2)%w.fresh
	}
}

// cycle is how many requests it takes to send every body once.
func (w workload) cycle() int {
	if w.rotation > 0 && w.fresh > 0 {
		return 2 * max(w.rotation, w.fresh)
	}
	return w.bodies()
}

// isFresh reports whether body index b belongs to the fresh pool.
func (w workload) isFresh(b int) bool { return b >= w.rotation }

// contentType is the request and response media type.
func (w workload) contentType() string {
	if w.bin {
		return wire.ContentTypeBin
	}
	return "application/json"
}

// request is one generated request: its content and its encoded body.
type request struct {
	samples []core.Sample
	sched   []core.SchedEvent
	body    []byte
}

// generate builds every request body of w from the simulated suite's
// samples. The same seed and pool give byte-identical bodies: every
// draw comes from one PRNG seeded by the seed and the workload name.
func generate(w workload, seed int64, pool []core.Sample, sched []core.SchedEvent) ([]request, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	reqs := make([]request, w.bodies())
	for i := range reqs {
		r := &reqs[i]
		r.samples = make([]core.Sample, w.samples)
		for j := range r.samples {
			r.samples[j] = pool[rng.Intn(len(pool))]
		}
		if w.schedEvery > 0 && !w.isFresh(i) && i%w.schedEvery == 0 {
			r.sched = sched
		}
		body, err := encodeRequest(w.bin, r.samples, r.sched)
		if err != nil {
			return nil, fmt.Errorf("%s body %d: %w", w.name, i, err)
		}
		r.body = body
	}
	return reqs, nil
}

// encodeRequest encodes an estimate request in either wire format.
func encodeRequest(bin bool, samples []core.Sample, sched []core.SchedEvent) ([]byte, error) {
	if bin {
		return wire.AppendEstimateRequest(nil, &wire.EstimateRequest{Samples: samples, Sched: sched}), nil
	}
	return json.Marshal(serve.EstimateRequest{Samples: samples, Sched: sched})
}

// lockConvoySched returns the lock-convoy roster's scheduler events,
// the off-CPU input sched-bearing requests carry.
func lockConvoySched() ([]core.SchedEvent, error) {
	spec, err := workloads.MTByName("lock-convoy")
	if err != nil {
		return nil, err
	}
	events, _, err := spec.Run()
	return events, err
}
