package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// bodiesFor runs the whole input pipeline for seed: simulate the suite,
// take the lock-convoy events, and generate every workload's bodies.
func bodiesFor(t *testing.T, seed int64) map[string][]request {
	t.Helper()
	m, _, _, err := simulateAndTrain(seed, filepath.Join(t.TempDir(), "model.json"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := lockConvoySched()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]request{}
	for _, w := range allWorkloads {
		reqs, err := generate(w, seed, m.pool, sched)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != w.bodies() {
			t.Fatalf("%s: %d bodies, want %d", w.name, len(reqs), w.bodies())
		}
		out[w.name] = reqs
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	a, again, other := bodiesFor(t, 1), bodiesFor(t, 1), bodiesFor(t, 2)
	for _, w := range allWorkloads {
		distinct := map[string]bool{}
		for i := range a[w.name] {
			if !bytes.Equal(a[w.name][i].body, again[w.name][i].body) {
				t.Errorf("%s body %d: same seed gave different bytes", w.name, i)
			}
			if bytes.Equal(a[w.name][i].body, other[w.name][i].body) {
				t.Errorf("%s body %d: seeds 1 and 2 gave the same bytes", w.name, i)
			}
			distinct[string(a[w.name][i].body)] = true
		}
		if len(distinct) != w.bodies() {
			t.Errorf("%s: %d distinct bodies, want %d", w.name, len(distinct), w.bodies())
		}
		// Every schedEvery-th request carries scheduler events.
		for k := 0; k < 4*w.cycle(); k++ {
			got := len(a[w.name][w.body(k)].sched) > 0
			if want := w.schedEvery > 0 && k%w.schedEvery == 0; got != want {
				t.Fatalf("%s: request %d carries sched events = %v, want %v", w.name, k, got, want)
			}
		}
	}
}

func TestBodySequence(t *testing.T) {
	for _, w := range allWorkloads {
		seen := map[int]int{}
		for k := 0; k < w.cycle(); k++ {
			seen[w.body(k)]++
		}
		if len(seen) != w.bodies() {
			t.Errorf("%s: one cycle of %d requests sends %d of %d bodies", w.name, w.cycle(), len(seen), w.bodies())
		}
		if w.rotation > 0 && w.fresh > 0 {
			for k := 0; k < 16; k++ {
				if w.isFresh(w.body(k)) != (k%2 == 1) {
					t.Errorf("%s: request %d should be fresh iff odd", w.name, k)
				}
			}
		}
	}
}
