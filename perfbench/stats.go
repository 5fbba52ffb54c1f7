package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p99 needs 1000 samples.
const minTail = 10

// tailCount is the number of samples of n that lie beyond the p-quantile.
func tailCount(n int, p float64) int {
	return int(math.Floor(float64(n)*(1-p) + 1e-9))
}

// highestPercentile returns the highest of the standard percentiles that n
// samples can support under the percentile rule, or false below p50's
// requirement.
func highestPercentile(n int) (float64, bool) {
	for _, p := range []float64{0.999, 0.99, 0.9, 0.5} {
		if tailCount(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank p-quantile of xs (copied, not sorted in
// place), refusing when fewer than minTail samples lie beyond it.
func quantile(xs []float64, p float64) (float64, error) {
	if tailCount(len(xs), p) < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			p*100, minTail, tailCount(len(xs), p), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, p), nil
}

// nearestRank is the p-quantile of an already sorted, non-empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pct names one percentile of one sample set.
type pct struct {
	name string
	xs   []float64
	p    float64
}

// blockQuantile splits xs, in schedule order, into consecutive blocks and
// returns the median of their p-quantiles, so one stall (a slow fsync, a
// scheduling hiccup) moves one block, not the result. It uses up to
// maxBlocks blocks, as many as the percentile rule allows each block, and
// refuses when even one block would break the rule.
func blockQuantile(xs []float64, p float64, maxBlocks int) (float64, error) {
	blocks := max(1, min(maxBlocks, tailCount(len(xs), p)/minTail))
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		q, err := quantile(xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks], p)
		if err != nil {
			return 0, fmt.Errorf("block %d of %d: %w", b+1, blocks, err)
		}
		per = append(per, q)
	}
	return median(per), nil
}

// median is the sample median; it needs no tail, only one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// climbLadder searches a fixed ascending ladder of rates for the highest
// rung that passes: it climbs stride rungs at a time from the first rung
// until a probe fails, then climbs one rung at a time from the last pass.
// It never reports a rung above one it saw fail, and the probes it makes
// depend only on their answers, so a monotone probe gives the same result
// every time. ok is false when the first rung fails.
func climbLadder(rungs []float64, stride int, probe func(rate float64) bool) (best float64, probed int, ok bool) {
	if len(rungs) == 0 {
		return 0, 0, false
	}
	try := func(i int) bool {
		probed++
		return probe(rungs[i])
	}
	if !try(0) {
		return 0, probed, false
	}
	i := 0
	for i+stride < len(rungs) && try(i+stride) {
		i += stride
	}
	for j, stop := i+1, min(i+stride, len(rungs)); j < stop; j++ {
		if !try(j) {
			break
		}
		i = j
	}
	return rungs[i], probed, true
}

// ladderRungs is the fixed geometric ladder from lo: each rung is step
// times the previous, up to n rungs.
func ladderRungs(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = math.Round(r)
		r *= step
	}
	return out
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to within.
// Overlapping children are counted once.
func covered(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
