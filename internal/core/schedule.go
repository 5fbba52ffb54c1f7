package core

import (
	"math"
	"sort"

	"repro/internal/task"
)

// Slot is one entry in a candidate schedule: a task with its expected start
// and completion time if the schedule runs without further arrivals or
// preemptions.
type Slot struct {
	Task       *task.Task
	Start      float64
	Completion float64
}

// ExpectedYield evaluates the slot's value function at its expected
// completion time.
func (s Slot) ExpectedYield() float64 {
	return s.Task.YieldAtCompletion(s.Completion)
}

// Candidate is a site's candidate schedule (Section 6): the priority order
// its pending tasks would run in, with expected start and completion times
// from list-scheduling that order onto the site's processors behind the
// currently running work.
//
// Candidates built by BuildCandidate retain enough context (policy,
// processor state, per-slot priorities) to answer WithTask queries: the
// slot a hypothetical extra task would occupy, computed incrementally
// against this base schedule instead of rebuilding from scratch.
type Candidate struct {
	Now   float64
	Slots []Slot // in expected start order

	// Incremental-evaluation context. policy is nil for candidates built
	// without it (internal ScheduledPrice refinement rounds), which makes
	// WithTask report ok=false and callers fall back to a full rebuild.
	policy Policy
	procs  int
	busy   []float64 // copy of the busyUntil passed to BuildCandidate
	prios  []float64 // priority per slot, aligned with Slots
	tasks  []*task.Task
}

// BuildCandidate constructs a candidate schedule. busyUntil holds one entry
// per processor occupied by a running task — the time that processor frees
// up; processors beyond len(busyUntil) (up to procs) are idle now. pending
// is ranked by the policy and list-scheduled greedily: each task in
// priority order claims the earliest-free processor.
func BuildCandidate(policy Policy, now float64, procs int, busyUntil []float64, pending []*task.Task) *Candidate {
	ordered, prios := rankWithPriorities(policy, now, pending)
	c := buildCandidateOrdered(now, procs, busyUntil, ordered)
	c.policy = policy
	c.procs = procs
	c.busy = append([]float64(nil), busyUntil...)
	c.prios = prios
	c.tasks = ordered
	return c
}

// Insertion is the result of evaluating one extra task against a base
// candidate schedule: the slot it would occupy and the rank position it
// would take, with every base slot at Pos and later shifted one place
// behind it.
type Insertion struct {
	Slot Slot
	Pos  int // index into the base Slots the task would be inserted at
}

// WithTask evaluates where task t would land if inserted into this
// candidate schedule, without rebuilding it. It requires the candidate's
// policy to implement Inserter and the policy to produce an insertion key
// for this task set (see Inserter); otherwise ok is false and the caller
// should fall back to BuildCandidate over the extended set.
//
// The returned slot is identical to the one a full rebuild would assign:
// the rank position comes from a binary search of the insertion key
// against the base priorities, and the start time replays list-scheduling
// of the first Pos base slots onto the processors. Cost is O(log n) for
// the search plus O(Pos) for the replay, versus O(n log n) per full
// rebuild — quoting m proposals against one base schedule is
// O(m·(log n + n)) instead of O(m·n log n).
func (c *Candidate) WithTask(t *task.Task) (Insertion, bool) {
	if c.policy == nil {
		return Insertion{}, false
	}
	ins, ok := c.policy.(Inserter)
	if !ok {
		return Insertion{}, false
	}
	key, ok := ins.InsertKey(c.Now, t, c.tasks)
	if !ok {
		return Insertion{}, false
	}

	// First slot t would outrank: priorities are non-increasing with
	// ascending-ID ties, so the predicate is monotone and sort.Search
	// applies. RankOrder's comparator is (priority desc, ID asc); t goes
	// before slot i exactly when it wins that comparison.
	pos := sort.Search(len(c.Slots), func(i int) bool {
		if key != c.prios[i] {
			return key > c.prios[i]
		}
		return t.ID < c.Slots[i].Task.ID
	})

	// Replay list-scheduling of the slots ahead of t to find the
	// earliest-free processor at its turn. Claims go by value, so the
	// replayed start times match a full rebuild exactly.
	free := newFreeTimes(c.Now, c.procs, c.busy)
	for _, s := range c.Slots[:pos] {
		free.claim(s.Task.RPT)
	}
	at := free[0]
	return Insertion{Slot: Slot{Task: t, Start: at, Completion: at + t.RPT}, Pos: pos}, true
}

// buildCandidateOrdered list-schedules an explicit dispatch order onto the
// processors.
func buildCandidateOrdered(now float64, procs int, busyUntil []float64, ordered []*task.Task) *Candidate {
	free := newFreeTimes(now, procs, busyUntil)
	c := &Candidate{Now: now, Slots: make([]Slot, len(ordered))}
	for i, t := range ordered {
		at := free.claim(t.RPT)
		c.Slots[i] = Slot{Task: t, Start: at, Completion: at + t.RPT}
	}
	return c
}

// freeTimes is a binary min-heap of processor free times, kept in place in
// a plain slice so list-scheduling allocates once per schedule.
type freeTimes []float64

// newFreeTimes holds one entry per busy processor (its free time, clamped
// to now) and one at now per idle processor up to procs (at least 1).
func newFreeTimes(now float64, procs int, busyUntil []float64) freeTimes {
	if procs < 1 {
		procs = 1
	}
	h := make(freeTimes, 0, max(procs, len(busyUntil)))
	for _, b := range busyUntil {
		h = append(h, math.Max(b, now))
	}
	for len(h) < procs {
		h = append(h, now)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// claim assigns work of length rpt to the earliest-free processor and
// returns the time it starts. Replacing the root and sifting it down pops
// and pushes the same values as a separate Pop then Push would.
func (h freeTimes) claim(rpt float64) float64 {
	at := h[0]
	h[0] = at + rpt
	h.down(0)
	return at
}

func (h freeTimes) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if !(h[m] < h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// RankOrder returns the pending tasks sorted by the policy's priorities,
// highest first. Ties break by task ID so candidate schedules are
// deterministic.
func RankOrder(policy Policy, now float64, pending []*task.Task) []*task.Task {
	ordered, _ := rankWithPriorities(policy, now, pending)
	return ordered
}

// rankWithPriorities is RankOrder returning the sorted priorities
// alongside the sorted tasks (prios[i] is ordered[i]'s priority).
func rankWithPriorities(policy Policy, now float64, pending []*task.Task) ([]*task.Task, []float64) {
	prios := policy.Priorities(now, pending)
	idx := make([]int, len(pending))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := prios[idx[a]], prios[idx[b]]
		if pa != pb {
			return pa > pb
		}
		return pending[idx[a]].ID < pending[idx[b]].ID
	})
	out := make([]*task.Task, len(pending))
	outPrios := make([]float64, len(pending))
	for i, j := range idx {
		out[i] = pending[j]
		outPrios[i] = prios[j]
	}
	return out, outPrios
}

// Slot returns the slot for a task, if present. With duplicate IDs it
// returns the last such slot.
func (c *Candidate) Slot(id task.ID) (Slot, bool) {
	i := c.find(id)
	if i < 0 {
		return Slot{}, false
	}
	return c.Slots[i], true
}

// Behind returns the tasks scheduled after the given task in the candidate
// schedule — the tasks that accepting it would delay (Equation 8's
// summation set).
func (c *Candidate) Behind(id task.ID) []*task.Task {
	i := c.find(id)
	if i < 0 {
		return nil
	}
	out := make([]*task.Task, 0, len(c.Slots)-i-1)
	for _, s := range c.Slots[i+1:] {
		out = append(out, s.Task)
	}
	return out
}

// find returns the position of the last slot holding id, or -1. A linear
// scan suffices: its callers go on to walk the slots behind it anyway.
func (c *Candidate) find(id task.ID) int {
	for i := len(c.Slots) - 1; i >= 0; i-- {
		if c.Slots[i].Task.ID == id {
			return i
		}
	}
	return -1
}

// TotalExpectedYield sums the expected yields across the schedule. It is
// the planner's estimate of the value the current mix will earn absent
// further arrivals.
func (c *Candidate) TotalExpectedYield() float64 {
	var sum float64
	for _, s := range c.Slots {
		sum += s.ExpectedYield()
	}
	return sum
}

// Makespan returns the latest expected completion in the schedule, or Now
// if it is empty.
func (c *Candidate) Makespan() float64 {
	m := c.Now
	for _, s := range c.Slots {
		if s.Completion > m {
			m = s.Completion
		}
	}
	return m
}
