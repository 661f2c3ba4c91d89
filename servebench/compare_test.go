package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 8}, 3, 6, 9},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// series returns n values base, base+step, ...
func series(n int, base, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)*step
	}
	return out
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a, b      []float64
		better    string
		bound     float64
		want      string
		wantShare float64
	}{
		// Latency 100..109 -> 80..89: every pair won, medians 20 apart,
		// parent IQR 5.
		{"improved", series(10, 100, 1), series(10, 80, 1), "lower", 0.1, "improved", 1},
		{"improved higher", series(10, 100, 1), series(10, 120, 1), "higher", 0.1, "improved", 1},
		// Nine pairs are too few to claim a gain, however clear.
		{"too few pairs", series(9, 100, 1), series(9, 80, 1), "lower", 0.1, "unchanged", 1},
		// Eight wins in ten pairs are too few.
		{"eight of ten", series(10, 100, 1),
			[]float64{80, 81, 82, 83, 84, 85, 86, 87, 200, 200}, "lower", 0.5, "unchanged", 0.8},
		// Ties count for neither side.
		{"ties", series(10, 100, 1), series(10, 100, 1), "lower", 0.1, "unchanged", 0},
		// 20% slower against a 10% bound with a tight parent.
		{"worse", series(10, 100, 0.1), series(10, 120, 0.1), "lower", 0.1, "worse", 0},
		{"worse higher", series(10, 100, 0.1), series(10, 80, 0.1), "higher", 0.1, "worse", 0},
		// 5% slower is within a 10% bound.
		{"within bound", series(10, 100, 0.1), series(10, 105, 0.1), "lower", 0.1, "unchanged", 0},
		// Parent IQR/median 0.45 > bound: cannot call it unchanged.
		{"unresolved", series(10, 10, 1), series(10, 11, 1), "lower", 0.1, "unresolved", 0},
		// ... unless every change run beats every parent run.
		{"wide but all better", series(10, 100, 3), series(10, 50, 1), "lower", 0.1, "improved", 1},
		{"error rate zero", make([]float64, 10), make([]float64, 10), "lower", 0, "unchanged", 0},
		{"error rate rises", make([]float64, 10), series(10, 0.01, 0), "lower", 0, "worse", 0},
	} {
		got, share := verdict(tc.a, tc.b, tc.better, tc.bound)
		if got != tc.want || math.Abs(share-tc.wantShare) > 1e-12 {
			t.Errorf("%s: verdict = %s (wins %.2f), want %s (wins %.2f)", tc.name, got, share, tc.want, tc.wantShare)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(path, &r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(seed int64, p50, rps float64, trace bool) record {
		r := record{Workload: "json-200-repeat", Seed: seed, Trace: trace}
		r.Metrics = map[string]metric{
			"latency_p50_ms": {Value: p50, Unit: "ms"},
			"throughput_rps": {Value: rps, Unit: "1/s"},
		}
		return r
	}
	var parent, change []record
	for s := int64(1); s <= 10; s++ {
		parent = append(parent, rec(s, 2+float64(s)/1000, 700, false))
		// The change halves latency and keeps throughput.
		change = append(change, rec(s, 1+float64(s)/1000, 700, false))
	}
	// Traced runs and runs without a partner are ignored.
	parent = append(parent, rec(1, 99, 1, true), rec(11, 99, 1, false))
	change = append(change, rec(1, 99, 1, true))

	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	}}
	var out strings.Builder
	if err := compareFiles(&out, spec, write("a.jsonl", parent), write("b.jsonl", change)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows, got:\n%s", out.String())
	}
	for _, want := range []string{"throughput_rps", "unchanged (10 pairs)"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row %q lacks %q", lines[1], want)
		}
	}
	for _, want := range []string{"latency_p50_ms", "100%", "improved (10 pairs)"} {
		if !strings.Contains(lines[2], want) {
			t.Errorf("row %q lacks %q", lines[2], want)
		}
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&out, spec, empty, write("c.jsonl", change)); err == nil {
		t.Error("comparing recordings with no common runs should fail")
	}
}
