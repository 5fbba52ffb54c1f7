package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pqueue"
	"repro/internal/task"
)

// This file keeps the dispatcher and list-scheduler as they were before
// PlanStarts selected its prefix with a bounded heap and candidate
// schedules kept processor free times in an in-place heap. The oracles
// below are those implementations; the tests require the shipped code to
// reproduce them exactly on random, tie-heavy and duplicate-ID books.

// sortPlanStarts is PlanStarts with the full sort: stable policies take
// RankOrder's prefix. The unstable per-start path did not change, so it
// delegates to PlanStarts.
func sortPlanStarts(policy Policy, now float64, free int, pending []*task.Task) ([]*task.Task, int) {
	if free <= 0 || len(pending) == 0 {
		return nil, 0
	}
	if StableUnderRemoval(policy, pending) {
		return RankOrder(policy, now, pending)[:min(free, len(pending))], 1
	}
	return PlanStarts(policy, now, free, pending)
}

// oracleCandidate is a candidate schedule built with pqueue and indexed
// by a map from task ID to slot (last write wins on duplicate IDs).
type oracleCandidate struct {
	slots []Slot
	index map[task.ID]int
}

func pqueueFreeTimes(now float64, procs int, busyUntil []float64) *pqueue.Queue[float64] {
	if procs < 1 {
		procs = 1
	}
	free := pqueue.New(func(a, b float64) bool { return a < b })
	for _, t := range busyUntil {
		free.Push(math.Max(t, now))
	}
	for i := len(busyUntil); i < procs; i++ {
		free.Push(now)
	}
	return free
}

func pqueueCandidate(now float64, procs int, busyUntil []float64, ordered []*task.Task) oracleCandidate {
	free := pqueueFreeTimes(now, procs, busyUntil)
	c := oracleCandidate{index: make(map[task.ID]int, len(ordered))}
	for _, t := range ordered {
		at := free.Pop().Value
		done := at + t.RPT
		free.Push(done)
		c.index[t.ID] = len(c.slots)
		c.slots = append(c.slots, Slot{Task: t, Start: at, Completion: done})
	}
	return c
}

func (c oracleCandidate) slot(id task.ID) (Slot, bool) {
	i, ok := c.index[id]
	if !ok {
		return Slot{}, false
	}
	return c.slots[i], true
}

func (c oracleCandidate) behind(id task.ID) []*task.Task {
	i, ok := c.index[id]
	if !ok {
		return nil
	}
	out := make([]*task.Task, 0, len(c.slots)-i-1)
	for _, s := range c.slots[i+1:] {
		out = append(out, s.Task)
	}
	return out
}

// pqueueWithTask is WithTask replaying list-scheduling through pqueue.
func pqueueWithTask(c *Candidate, t *task.Task) (Insertion, bool) {
	ins, ok := c.policy.(Inserter)
	if !ok {
		return Insertion{}, false
	}
	key, ok := ins.InsertKey(c.Now, t, c.tasks)
	if !ok {
		return Insertion{}, false
	}
	slots := c.Slots()
	pos := sort.Search(len(slots), func(i int) bool {
		if key != c.keys[i].prio {
			return key > c.keys[i].prio
		}
		return t.ID < slots[i].Task.ID
	})
	free := pqueueFreeTimes(c.Now, c.procs, c.busy)
	for _, s := range slots[:pos] {
		at := free.Pop().Value
		free.Push(at + s.Task.RPT)
	}
	at := free.Pop().Value
	return Insertion{Slot: Slot{Task: t, Start: at, Completion: at + t.RPT}, Pos: pos}, true
}

// oracleScheduledPrice is ScheduledPrice pricing each task from the
// pqueue candidate's ID map.
type oracleScheduledPrice struct{ ScheduledPrice }

func (p oracleScheduledPrice) Priorities(now float64, tasks []*task.Task) []float64 {
	n := len(tasks)
	prios := make([]float64, n)
	if n == 0 {
		return prios
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i, t := range tasks {
		prios[i] = t.ExpectedYield(now) / t.RPT
	}
	sortByPriority(order, prios, tasks)
	for round := 0; round < p.effRounds(); round++ {
		ordered := make([]*task.Task, n)
		for pos, idx := range order {
			ordered[pos] = tasks[idx]
		}
		cand := pqueueCandidate(now, p.effProcs(), nil, ordered)
		for _, idx := range order {
			slot, _ := cand.slot(tasks[idx].ID)
			prios[idx] = tasks[idx].YieldAtCompletion(slot.Completion) / tasks[idx].RPT
		}
		sortByPriority(order, prios, tasks)
	}
	return prios
}

// sortByPriority is ScheduledPrice's former reorder step: a stable sort
// of task indexes by descending priority with ID tie-breaks.
func sortByPriority(order []int, prios []float64, tasks []*task.Task) {
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := prios[order[a]], prios[order[b]]
		if pa != pb {
			return pa > pb
		}
		return tasks[order[a]].ID < tasks[order[b]].ID
	})
}

// bookKind names a family of random pending queues.
type bookKind int

const (
	distinctBook  bookKind = iota // random attributes, unique IDs
	tieBook                       // ≥90% identical tasks, so equal priorities under every policy
	duplicateBook                 // IDs from a small range, half the tasks identical: equal priority and ID
	boundedBook                   // finite penalties: FirstReward leaves its stable path
)

func (k bookKind) String() string {
	return [...]string{"distinct", "ties", "duplicate-ids", "bounded"}[k]
}

// oracleBook builds n pending tasks of the given kind.
func oracleBook(rng *rand.Rand, kind bookKind, n int) []*task.Task {
	out := make([]*task.Task, n)
	for i := range out {
		id := task.ID(i + 1)
		if kind == duplicateBook {
			id = task.ID(1 + rng.Intn(n/3+1))
		}
		bound := math.Inf(1)
		if kind == boundedBook {
			bound = rng.Float64() * 200
		}
		if (kind == tieBook && rng.Float64() < 0.95) || (kind == duplicateBook && rng.Float64() < 0.5) {
			out[i] = task.New(id, 10, 40, 300, 1.5, bound)
			continue
		}
		out[i] = task.New(id, rng.Float64()*50, 1+rng.Float64()*200,
			1+rng.Float64()*400, rng.Float64()*2, bound)
	}
	if kind == tieBook {
		// Shuffle so the common template is not clustered by ID.
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	}
	return out
}

func oracleKinds() []bookKind {
	return []bookKind{distinctBook, tieBook, duplicateBook, boundedBook}
}

func sameBits(a, b Slot) bool {
	return a.Task == b.Task && math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.Completion) == math.Float64bits(b.Completion)
}

// TestPlanStartsMatchesSortOracle: selecting the top free tasks returns
// the same task pointers, in the same order and with the same rank-op
// count, as sorting the whole queue and taking the prefix.
func TestPlanStartsMatchesSortOracle(t *testing.T) {
	const now, procs = 60.0, 4
	rng := rand.New(rand.NewSource(41))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			for _, n := range []int{1, 2, 9, 64, 257} {
				pending := oracleBook(rng, kind, n)
				oracle := Policy(p)
				if sp, ok := p.(ScheduledPrice); ok {
					if kind == duplicateBook {
						// The map priced twins alike; see
						// TestScheduledPriceMatchesMapOracle.
						continue
					}
					oracle = oracleScheduledPrice{sp}
				}
				for _, free := range []int{1, 3, procs, n / 4, n, n + 5} {
					want, wantOps := sortPlanStarts(oracle, now, free, pending)
					got, gotOps := PlanStarts(p, now, free, pending)
					name := fmt.Sprintf("%s %v n=%d free=%d", p.Name(), kind, n, free)
					if gotOps != wantOps || len(got) != len(want) {
						t.Fatalf("%s: %d starts in %d rank ops, want %d in %d", name, len(got), gotOps, len(want), wantOps)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: start[%d] = %p (task %d), want %p (task %d)",
								name, i, got[i], got[i].ID, want[i], want[i].ID)
						}
					}
				}
			}
		}
	}
}

// oracleBusy are processor states: idle, busy in the past (clamped to
// now), mixed, and more busy entries than processors.
func oracleBusy(now float64) [][]float64 {
	return [][]float64{
		nil,
		{now - 30, now - 1},
		{now + 12, now - 5, now + 3},
		{now + 1, now + 2, now + 3, now + 4, now + 5, now + 6},
	}
}

// TestBuildCandidateMatchesPqueueOracle: the in-place heap list-schedules
// every slot to the same task and the same start and completion bits as
// the pqueue scheduler.
func TestBuildCandidateMatchesPqueueOracle(t *testing.T) {
	const now = 60.0
	rng := rand.New(rand.NewSource(43))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			for _, n := range []int{0, 1, 7, 120} {
				pending := oracleBook(rng, kind, n)
				for _, procs := range []int{0, 1, 3, 16} {
					for _, busy := range oracleBusy(now) {
						got := BuildCandidate(p, now, procs, busy, pending).Slots()
						want := pqueueCandidate(now, procs, busy, RankOrder(p, now, pending))
						if len(got) != len(want.slots) {
							t.Fatalf("%s %v n=%d procs=%d: %d slots, want %d", p.Name(), kind, n, procs, len(got), len(want.slots))
						}
						for i := range got {
							if !sameBits(got[i], want.slots[i]) {
								t.Fatalf("%s %v n=%d procs=%d busy=%v: slot %d = %+v, want %+v",
									p.Name(), kind, n, procs, busy, i, got[i], want.slots[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestWithTaskMatchesPqueueOracle: incremental insertions land at the same
// position with the same slot bits as the pqueue replay, and decline
// exactly where it declines.
func TestWithTaskMatchesPqueueOracle(t *testing.T) {
	const now = 60.0
	rng := rand.New(rand.NewSource(47))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			pending := oracleBook(rng, kind, 90)
			probes := oracleBook(rng, kind, 12)
			// A twin of a queued task ties it exactly.
			probes = append(probes, pending[0].Clone(), pending[len(pending)/2].Clone())
			for _, procs := range []int{0, 1, 3, 16} {
				for _, busy := range oracleBusy(now) {
					base := BuildCandidate(p, now, procs, busy, pending)
					for _, pr := range probes {
						got, gotOK := base.WithTask(pr)
						want, wantOK := pqueueWithTask(base, pr)
						if gotOK != wantOK || got.Pos != want.Pos || !sameBits(got.Slot, want.Slot) {
							t.Fatalf("%s %v procs=%d busy=%v probe %d: %+v ok=%v, want %+v ok=%v",
								p.Name(), kind, procs, busy, pr.ID, got, gotOK, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// TestSlotBehindMatchMapOracle: scanning the slots answers Slot and Behind
// as the ID map did, including last-write-wins on duplicate IDs and the
// nil answer for an absent ID.
func TestSlotBehindMatchMapOracle(t *testing.T) {
	const now = 60.0
	rng := rand.New(rand.NewSource(53))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			pending := oracleBook(rng, kind, 60)
			got := BuildCandidate(p, now, 3, []float64{now + 7}, pending)
			want := pqueueCandidate(now, 3, []float64{now + 7}, RankOrder(p, now, pending))
			for id := task.ID(0); id <= 62; id++ {
				gs, gok := got.Slot(id)
				ws, wok := want.slot(id)
				if gok != wok || (gok && !sameBits(gs, ws)) {
					t.Fatalf("%s %v: Slot(%d) = %+v %v, want %+v %v", p.Name(), kind, id, gs, gok, ws, wok)
				}
				gb, wb := got.Behind(id), want.behind(id)
				if (gb == nil) != (wb == nil) || len(gb) != len(wb) {
					t.Fatalf("%s %v: Behind(%d) has %d tasks (nil %v), want %d (nil %v)",
						p.Name(), kind, id, len(gb), gb == nil, len(wb), wb == nil)
				}
				for i := range gb {
					if gb[i] != wb[i] {
						t.Fatalf("%s %v: Behind(%d)[%d] = task %d, want task %d", p.Name(), kind, id, i, gb[i].ID, wb[i].ID)
					}
				}
			}
		}
	}
}

// TestScheduledPriceMatchesMapOracle: reading each task's slot by its
// position prices every task bit-identically to the ID map whenever IDs
// are unique. With duplicate IDs the map gave every twin the last twin's
// completion; by position each task is priced at its own.
func TestScheduledPriceMatchesMapOracle(t *testing.T) {
	const now = 60.0
	rng := rand.New(rand.NewSource(59))
	for _, kind := range []bookKind{distinctBook, tieBook, boundedBook} {
		for _, procs := range []int{0, 1, 4} {
			for _, n := range []int{1, 5, 80} {
				p := ScheduledPrice{Processors: procs}
				pending := oracleBook(rng, kind, n)
				got := p.Priorities(now, pending)
				want := oracleScheduledPrice{p}.Priorities(now, pending)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v procs=%d n=%d: priority[%d] = %v, want %v", kind, procs, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
