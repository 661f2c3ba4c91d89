package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// recordedOnly are end-to-end metrics a recording holds that
// BENCHMARK.json does not list: latency_p99_ms rests on too few
// responses on the routed workload to hold a bound, shed_p50_ms exists
// only on the workload that sheds, and error_rate is 0 on a correct run.
var recordedOnly = []metricSpec{
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "shed_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0},
}

// readRecording reads a JSON-lines recording.
func readRecording(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict applies the paired-run rule to one metric on one workload.
// a and b hold the parent's and the change's runs, paired by index.
//   - improved: at least 10 pairs, the change wins at least 9 in 10 of
//     them (ties count for neither), and the medians differ in its
//     favour by more than the parent's interquartile range;
//   - unresolved: the parent's own spread (IQR over median) is wider
//     than the bound, unless every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more
//     than bound times the parent's median;
//   - unchanged otherwise.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	n := min(len(a), len(b))
	if n == 0 {
		return "unresolved", 0
	}
	// gain is how much better x is than y, in the metric's direction.
	gain := func(x, y float64) float64 {
		if better == "higher" {
			return x - y
		}
		return y - x
	}
	wins := 0
	for i := 0; i < n; i++ {
		if gain(b[i], a[i]) > 0 {
			wins++
		}
	}
	share := float64(wins) / float64(n)
	q1a, meda, q3a := quartiles(a[:n])
	_, medb, _ := quartiles(b[:n])
	iqr := q3a - q1a
	if n >= 10 && share >= 0.9 && gain(medb, meda) > iqr {
		return "improved", share
	}
	allBetter := true
	for _, x := range b[:n] {
		for _, y := range a[:n] {
			if gain(x, y) <= 0 {
				allBetter = false
			}
		}
	}
	if iqr > bound*math.Abs(meda) && !allBetter {
		return "unresolved", share
	}
	if -gain(medb, meda) > bound*math.Abs(meda) {
		return "worse", share
	}
	return "unchanged", share
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the change's pair win share and the verdict.
// Untraced runs pair up by workload and seed.
func compareFiles(w io.Writer, spec *benchSpec, parentPath, changePath string) error {
	parent, err := readRecording(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecording(changePath)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		seed     int64
	}
	bySeed := map[key]record{}
	for _, r := range change {
		if !r.Trace {
			bySeed[key{r.Workload, r.Seed}] = r
		}
	}
	pairs := map[string][][2]record{}
	var order []string
	for _, r := range parent {
		c, ok := bySeed[key{r.Workload, r.Seed}]
		if r.Trace || !ok {
			continue
		}
		if pairs[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		pairs[r.Workload] = append(pairs[r.Workload], [2]record{r, c})
	}
	if len(order) == 0 {
		return fmt.Errorf("no untraced runs with the same workload and seed in %s and %s", parentPath, changePath)
	}
	fmt.Fprintf(w, "%-22s %-22s %-6s %28s %28s %6s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range order {
		for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), recordedOnly...) {
			var a, b []float64
			for _, p := range pairs[wl] {
				x, okx := p[0].Metrics[ms.Name]
				y, oky := p[1].Metrics[ms.Name]
				if okx && oky {
					a, b = append(a, x.Value), append(b, y.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			v, share := verdict(a, b, ms.Better, ms.Bound)
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Fprintf(w, "%-22s %-22s %-6s %10.4f [%7.4g, %7.4g] %10.4f [%7.4g, %7.4g] %5.0f%%  %s (%d pairs)\n",
				wl, ms.Name, ms.Unit, ma, q1a, q3a, mb, q1b, q3b, 100*share, v, len(a))
		}
	}
	return nil
}
