package core

import "repro/internal/task"

// PlanStarts selects the tasks to start on free processors at one
// scheduling event, in start order, and reports how many ranking passes
// (full Priorities evaluations) the selection cost.
//
// The seed dispatcher re-ranked the entire pending queue after every
// start — O(free · rank) per event, with rank itself O(n log n) (or worse
// under the general-cost ablation). PlanStarts ranks once and fills every
// free processor from that order whenever the policy's ranking is stable
// under removal (see StableRanker / ConditionalStableRanker): removing the
// started task cannot reorder the remainder, so the single order's prefix
// is exactly what per-start re-ranking would have produced — including tie
// breaks, because RankOrder's (priority desc, ID asc) comparator is a
// total order.
//
// Policies with cross-task terms that do not cancel (FirstReward over
// bounded penalties, ScheduledPrice) keep per-start fidelity: each start
// recomputes priorities over the surviving set and picks the argmax,
// reproducing the seed's selection exactly (same accumulation order, same
// floats, same tie breaks) without the seed's per-start full sort.
//
// pending is not mutated. len(starts) == min(free, len(pending)).
func PlanStarts(policy Policy, now float64, free int, pending []*task.Task) (starts []*task.Task, rankOps int) {
	if free <= 0 || len(pending) == 0 {
		return nil, 0
	}
	n := free
	if n > len(pending) {
		n = len(pending)
	}

	if StableUnderRemoval(policy, pending) {
		top := TopRanked(nil, policy.Priorities(now, pending), pending, n)
		starts = make([]*task.Task, n)
		for i, j := range top {
			starts[i] = pending[j]
		}
		return starts, 1
	}

	// Unstable path: re-rank the surviving set before each start. The
	// working copy shrinks with order-preserving removal so Priorities sees
	// the tasks in the same slice order the seed's pending queue would
	// have, keeping floating-point accumulation — and therefore selection —
	// bit-identical to the seed.
	rest := append([]*task.Task(nil), pending...)
	starts = make([]*task.Task, 0, n)
	for len(starts) < n {
		prios := policy.Priorities(now, rest)
		rankOps++
		best := 0
		for i := 1; i < len(rest); i++ {
			if prios[i] > prios[best] || (prios[i] == prios[best] && rest[i].ID < rest[best].ID) {
				best = i
			}
		}
		starts = append(starts, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	return starts, rankOps
}

// TopRanked returns the indexes of the best k of tasks under RankOrder's
// total order — priority descending, then ID ascending, then input
// position — best first: the indexes of exactly RankOrder(...)[:k] for
// these priorities. It reuses dst's storage. A max-heap of the k best seen
// so far, worst at the root, screens each task in O(log k); draining the
// heap worst-first into its own tail then leaves it in rank order.
func TopRanked(dst []int, prios []float64, tasks []*task.Task, k int) []int {
	// before reports whether tasks[a] ranks ahead of tasks[b].
	before := func(a, b int) bool {
		if prios[a] != prios[b] {
			return prios[a] > prios[b]
		}
		if tasks[a].ID != tasks[b].ID {
			return tasks[a].ID < tasks[b].ID
		}
		return a < b
	}
	// down restores the heap below i, keeping the worst of h at the root.
	down := func(h []int, i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && before(h[l], h[r]) {
				m = r
			}
			if !before(h[i], h[m]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}

	h := resize(dst, k)
	for i := range h {
		h[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	for i := k; i < len(tasks); i++ {
		if before(i, h[0]) {
			h[0] = i
			down(h, 0)
		}
	}
	for last := k - 1; last > 0; last-- {
		h[0], h[last] = h[last], h[0]
		down(h[:last], 0)
	}
	return h
}
