package core

import (
	"fmt"

	"repro/internal/task"
)

// ScheduledPrice is the Millennium formulation of FirstPrice in which a
// task's price is its yield at the expected completion time *in the
// candidate schedule*, not under an immediate hypothetical start — "the
// Millennium study refers to it as the task's price in the schedule"
// (Section 4). Because queue position determines the price and the price
// determines queue position, the ranking is a fixed point; the policy
// approximates it with a bounded number of reorder rounds seeded by the
// immediate-start FirstPrice order.
//
// Compared with FirstPrice, deep-queue tasks see their prices collapse to
// their bounds early (their scheduled completions are far out), which
// stabilizes the back of the queue under load.
type ScheduledPrice struct {
	// Processors the internal candidate schedule assumes. Zero means 1.
	Processors int
	// Rounds of price/order refinement. Zero means 2.
	Rounds int
}

// Name implements Policy.
func (p ScheduledPrice) Name() string {
	return fmt.Sprintf("ScheduledPrice(procs=%d)", p.effProcs())
}

func (p ScheduledPrice) effProcs() int {
	if p.Processors < 1 {
		return 1
	}
	return p.Processors
}

func (p ScheduledPrice) effRounds() int {
	if p.Rounds < 1 {
		return 2
	}
	return p.Rounds
}

// Priorities implements Policy.
func (p ScheduledPrice) Priorities(now float64, tasks []*task.Task) []float64 {
	n := len(tasks)
	prios := make([]float64, n)
	if n == 0 {
		return prios
	}

	// Seed with the immediate-start FirstPrice order.
	keys := identityKeys(n)
	for i, t := range tasks {
		prios[i] = t.ExpectedYield(now) / t.RPT
	}
	rankWithPriorities(keys, prios, tasks)

	// Each round list-schedules the current order, re-prices every task at
	// its scheduled completion and re-ranks from that order.
	cand := &Candidate{Now: now, procs: p.effProcs(), tasks: make([]*task.Task, n)}
	for round := 0; round < p.effRounds(); round++ {
		for pos, k := range keys {
			cand.tasks[pos] = tasks[k.idx]
		}
		cand.schedule()
		for pos, k := range keys {
			prios[k.idx] = tasks[k.idx].YieldAtCompletion(cand.slots[pos].Completion) / tasks[k.idx].RPT
		}
		rankWithPriorities(keys, prios, tasks)
	}
	return prios
}

// StableUnderRemoval implements StableRanker. A task's scheduled price
// depends on its position in the candidate schedule, so removing the task
// ahead of it changes every price behind it: re-rank per start.
func (ScheduledPrice) StableUnderRemoval() bool { return false }

var _ Policy = ScheduledPrice{}
