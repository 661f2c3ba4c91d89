// Package geom provides the small computational-geometry kernel used by
// SPIRE's roofline fitting: 2-D points, slopes, upper convex hulls, and
// Pareto fronts.
//
// Throughout this package the x axis is a SPIRE operational intensity
// (work per metric event) and the y axis is a throughput (work per time).
// Both are non-negative; x may be +Inf (a sample whose metric count was
// zero has infinite operational intensity).
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Point is a 2-D point. In SPIRE terms X is operational intensity and Y is
// throughput.
type Point struct {
	X float64
	Y float64
}

// String renders the point compactly for diagnostics.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// IsFinite reports whether both coordinates are finite (not NaN or ±Inf).
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Valid reports whether the point can participate in roofline fitting:
// finite non-negative throughput and non-negative (possibly +Inf)
// intensity.
func (p Point) Valid() bool {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		return false
	}
	if p.X < 0 || p.Y < 0 {
		return false
	}
	if math.IsInf(p.Y, 0) {
		return false
	}
	return !math.IsInf(p.X, -1)
}

// SortByX sorts points by ascending X, breaking ties by descending Y so
// that the dominant point of a vertical cluster comes first.
func SortByX(pts []Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y > pts[j].Y
	})
}

// MaxY returns the index of the point with the highest Y value. Ties are
// broken by the lower X (the earliest such point after SortByX ordering).
// It returns -1 for an empty slice.
func MaxY(pts []Point) int {
	best := -1
	for i, p := range pts {
		if best == -1 || p.Y > pts[best].Y ||
			(p.Y == pts[best].Y && p.X < pts[best].X) {
			best = i
		}
	}
	return best
}

// Slope returns the slope of the line from a to b. A vertical rise returns
// ±Inf; coincident points return NaN.
func Slope(a, b Point) float64 {
	return (b.Y - a.Y) / (b.X - a.X)
}

// UpperHullFromOrigin computes the chain of points used by SPIRE's
// left-region fit (paper Fig. 5): starting from the origin, repeatedly move
// to the remaining point with the greatest slope from the current point,
// until the maximum-throughput point is reached. The result is an
// increasing, concave-down chain that lies on or above every input point
// over the chain's X range. The returned chain excludes the origin and is
// ordered by ascending X; it always ends at the maximum-Y point.
//
// Only points with X at or below the maximum-Y point's X participate
// (points to its right belong to the right-region fit). Points must be
// Valid; callers filter beforehand. An empty input yields a nil chain.
func UpperHullFromOrigin(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	peak := pts[MaxY(pts)]
	// Candidates: strictly left of (or at) the peak.
	cand := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.X <= peak.X {
			cand = append(cand, p)
		}
	}
	var chain []Point
	cur := Point{0, 0}
	for {
		if cur == peak {
			break
		}
		// Find the highest slope from cur among candidates strictly
		// up-and-right of cur.
		bestIdx := -1
		bestSlope := math.Inf(-1)
		for i, p := range cand {
			if p.X <= cur.X || p.Y < cur.Y {
				continue
			}
			if p.X == cur.X && p.Y == cur.Y {
				continue
			}
			s := Slope(cur, p)
			if s > bestSlope || (s == bestSlope && bestIdx >= 0 && p.X > cand[bestIdx].X) {
				bestSlope = s
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			// No point is up-and-right; the peak must be reachable,
			// so this only happens when cur already dominates peak
			// (duplicate peaks). Terminate defensively.
			break
		}
		cur = cand[bestIdx]
		chain = append(chain, cur)
	}
	if len(chain) == 0 || chain[len(chain)-1] != peak {
		chain = append(chain, peak)
	}
	return chain
}

// ParetoFront returns the subset of points that are Pareto-optimal when
// maximizing both X and Y: a point is kept iff no other point has both
// X >= and Y >= (with at least one strict). The result is sorted by
// ascending X, which — by Pareto optimality — is also descending in Y.
// Duplicate points are collapsed to one.
func ParetoFront(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	// Descending X; ties by descending Y.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X > sorted[j].X
		}
		return sorted[i].Y > sorted[j].Y
	})
	var front []Point
	bestY := math.Inf(-1)
	lastX := math.NaN()
	for _, p := range sorted {
		if p.Y > bestY {
			if p.X == lastX && len(front) > 0 {
				// Same X as the previous front member but higher Y
				// cannot happen given the sort; guard anyway.
				continue
			}
			front = append(front, p)
			bestY = p.Y
			lastX = p.X
		}
	}
	// front is in descending X; reverse to ascending.
	for i, j := 0, len(front)-1; i < j; i, j = i+1, j-1 {
		front[i], front[j] = front[j], front[i]
	}
	return front
}
