// Package stats implements the statistical machinery the paper's
// evaluation rests on: per-phase coefficient of variation (CoV) of CPI,
// the interval-weighted "identifier CoV", and the CoV curve — the paper's
// proposed tool for quantifying the trade-off between phase homogeneity
// and tuning overhead (number of phases).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs
// (the paper's CoV is a population statistic over all intervals of a
// phase), or 0 for fewer than one element.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CoV returns the coefficient of variation (stddev/mean) of xs.
// A phase with a single interval, or a zero mean, has CoV 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// IdentifierCoV computes the paper's summary metric for one processor:
// group the per-interval CPI values by assigned phase ID, compute each
// phase's CoV of CPI, and average the per-phase CoVs weighted by how many
// intervals belong to each phase. It returns the weighted CoV and the
// number of distinct phases observed.
//
// phases[i] is the phase ID assigned to interval i; cpis[i] is that
// interval's CPI. The two slices must have equal length. IDs outside
// [0, len(phases)) are first replaced by their ascending rank, which
// keeps the order the per-phase terms are summed in; DenseIdentifierCoV
// does the grouping.
func IdentifierCoV(phases []int, cpis []float64) (cov float64, numPhases int) {
	if len(phases) != len(cpis) {
		panic("stats: phases and cpis length mismatch")
	}
	for _, p := range phases {
		if p < 0 || p >= len(phases) {
			phases = rankIDs(phases)
			break
		}
	}
	return DenseIdentifierCoV(phases, cpis, new(CoVScratch))
}

// rankIDs returns each ID's rank among the distinct IDs, ascending.
func rankIDs(phases []int) []int {
	keys := append([]int(nil), phases...)
	sort.Ints(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			uniq = append(uniq, k)
		}
	}
	ranks := make([]int, len(phases))
	for i, p := range phases {
		ranks[i] = sort.SearchInts(uniq, p)
	}
	return ranks
}

// CoVScratch is caller-owned scratch space for DenseIdentifierCoV. The
// zero value is ready to use; its buffers grow to the longest sequence
// seen and are then reused.
type CoVScratch struct {
	start []int
	group []float64
}

// DenseIdentifierCoV is IdentifierCoV for phase IDs in [0, len(phases)),
// as footprint-table classification produces them. It groups the CPIs by
// a stable counting sort into s, so each phase's values keep interval
// order, and sums the per-phase terms in ascending ID order; once s has
// grown it allocates nothing.
func DenseIdentifierCoV(phases []int, cpis []float64, s *CoVScratch) (cov float64, numPhases int) {
	if len(phases) != len(cpis) {
		panic("stats: phases and cpis length mismatch")
	}
	n := len(phases)
	if n == 0 {
		return 0, 0
	}
	if cap(s.start) < n+1 {
		s.start = make([]int, n+1)
		s.group = make([]float64, n)
	}
	// start[p+1] counts phase p; the prefix sum turns start[p] into the
	// offset of phase p's group, and the scatter advances it to the end.
	start, group := s.start[:n+1], s.group[:n]
	clear(start)
	for _, p := range phases {
		start[p+1]++
	}
	for p := 1; p <= n; p++ {
		start[p] += start[p-1]
	}
	for i, p := range phases {
		group[start[p]] = cpis[i]
		start[p]++
	}
	// Sum in ascending ID order: float addition is not associative, so
	// the order is part of the result.
	total := float64(n)
	var weighted float64
	lo := 0
	for p := 0; p < n; p++ {
		g := group[lo:start[p]]
		lo = start[p]
		if len(g) == 0 {
			continue
		}
		weighted += CoV(g) * float64(len(g)) / total
		numPhases++
	}
	return weighted, numPhases
}

// CurvePoint is one operating point of a phase detector: a threshold
// setting yields some number of phases and some identifier CoV.
type CurvePoint struct {
	// Phases is the number of distinct phases the detector produced
	// (a proxy for tuning overhead; fewer is cheaper).
	Phases float64
	// CoV is the identifier CoV of CPI at this operating point
	// (smaller means more homogeneous phases).
	CoV float64
	// Threshold records the classification threshold that produced this
	// point (the BBV Manhattan threshold; informational).
	Threshold float64
	// ThresholdDDS records the DDS threshold for two-threshold detectors
	// (zero for BBV-only).
	ThresholdDDS float64
}

// Curve is a CoV curve: identifier CoV as a function of the number of
// phases, across a threshold sweep. Points are kept sorted by Phases.
type Curve struct {
	Points []CurvePoint
}

// LowerEnvelope reduces an arbitrary point cloud to the paper-style CoV
// curve: for each distinct phase count, keep the point with the smallest
// CoV, then drop points that are dominated (a point is dominated if some
// point with fewer-or-equal phases has smaller-or-equal CoV). The result
// is non-increasing in CoV as Phases grows, matching how the paper reads
// its curves ("CoV achieved with k phases").
func LowerEnvelope(pts []CurvePoint) Curve {
	if len(pts) == 0 {
		return Curve{}
	}
	best := make(map[float64]CurvePoint)
	for _, p := range pts {
		b, ok := best[p.Phases]
		if !ok || p.CoV < b.CoV {
			best[p.Phases] = p
		}
	}
	out := make([]CurvePoint, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phases < out[j].Phases })
	// Enforce monotone non-increasing CoV: a detector that achieves CoV c
	// with k phases trivially achieves ≤c with more phases available.
	env := out[:0]
	minSoFar := math.Inf(1)
	for _, p := range out {
		if p.CoV < minSoFar {
			minSoFar = p.CoV
			env = append(env, p)
		}
	}
	return Curve{Points: append([]CurvePoint(nil), env...)}
}

// CoVAt returns the smallest CoV achievable with at most maxPhases phases,
// or +Inf if no point on the curve uses that few phases.
func (c Curve) CoVAt(maxPhases float64) float64 {
	res := math.Inf(1)
	for _, p := range c.Points {
		if p.Phases <= maxPhases && p.CoV < res {
			res = p.CoV
		}
	}
	return res
}

// PhasesAt returns the smallest number of phases that achieves CoV at or
// below the target, or +Inf if the curve never reaches it.
func (c Curve) PhasesAt(targetCoV float64) float64 {
	res := math.Inf(1)
	for _, p := range c.Points {
		if p.CoV <= targetCoV && p.Phases < res {
			res = p.Phases
		}
	}
	return res
}

// tCrit975 holds two-sided 95% Student-t critical values for small
// degrees of freedom; beyond the table the normal quantile is close
// enough. Replicate counts are single digits in practice, so the exact
// small-sample quantiles matter.
var tCrit975 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval (Student-t, sample standard deviation). A single
// observation — or none — has zero half-width: the band degenerates to
// the point estimate rather than pretending at uncertainty it cannot
// measure.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	mean = Mean(xs)
	if n == 1 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	df := n - 1
	t := 1.960
	if df <= len(tCrit975) {
		t = tCrit975[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}

// BandPoint is one phase-count point of a confidence band: the mean CoV
// achievable within Phases phases across replicates, with a 95% CI.
type BandPoint struct {
	// Phases is the phase budget the point is evaluated at.
	Phases float64
	// Mean is the mean best CoV within the budget across replicates.
	Mean float64
	// Lo and Hi bound the 95% confidence interval (mean ± t·s/√n).
	Lo, Hi float64
	// N counts the replicates contributing a finite value at this budget.
	N int
}

// Band is a CoV curve with uncertainty: the across-replicate aggregate
// of several single-seed curves. Points are sorted by Phases.
type Band struct {
	Points []BandPoint
}

// BandAcross aggregates replicate curves into a confidence band. The
// band is evaluated on the union grid of every curve's phase values:
// at each budget, each curve contributes its best CoV within the budget
// (Curve.CoVAt), and the finite values are summarized by MeanCI95.
// Curves enter symmetrically, so the result is independent of their
// order. Replicates whose envelopes never reach a budget are excluded
// at that point (N records how many contributed).
func BandAcross(curves []Curve) Band {
	grid := map[float64]bool{}
	for _, c := range curves {
		for _, p := range c.Points {
			grid[p.Phases] = true
		}
	}
	phases := make([]float64, 0, len(grid))
	for ph := range grid {
		phases = append(phases, ph)
	}
	sort.Float64s(phases)
	var b Band
	vals := make([]float64, 0, len(curves))
	for _, ph := range phases {
		vals = vals[:0]
		for _, c := range curves {
			if v := c.CoVAt(ph); !math.IsInf(v, 1) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		mean, half := MeanCI95(vals)
		b.Points = append(b.Points, BandPoint{
			Phases: ph,
			Mean:   mean,
			Lo:     mean - half,
			Hi:     mean + half,
			N:      len(vals),
		})
	}
	return b
}

// At returns the smallest mean CoV achievable with at most maxPhases
// phases — the band analogue of Curve.CoVAt — together with the CI
// half-width of the point that attains it. An unreachable budget
// reports (+Inf, 0).
func (b Band) At(maxPhases float64) (mean, half float64) {
	mean = math.Inf(1)
	for _, p := range b.Points {
		if p.Phases <= maxPhases && p.Mean < mean {
			mean, half = p.Mean, p.Hi-p.Mean
		}
	}
	return mean, half
}

// MeanAt returns the mean half of At(maxPhases).
func (b Band) MeanAt(maxPhases float64) float64 {
	mean, _ := b.At(maxPhases)
	return mean
}

// HalfAt returns the half-width half of At(maxPhases).
func (b Band) HalfAt(maxPhases float64) float64 {
	_, half := b.At(maxPhases)
	return half
}

// GeomSpace returns n values spaced geometrically from lo to hi inclusive.
// lo and hi must be positive and n ≥ 2. It is used to generate the
// paper's ~200 threshold values.
func GeomSpace(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= 0 {
		panic("stats: GeomSpace requires n>=2 and positive bounds")
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi
	return out
}
