package core

import (
	"math"
	"slices"
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
// processor state, per-task priorities) to answer WithTask queries: the
// slot a hypothetical extra task would occupy, computed incrementally
// against this base schedule instead of rebuilding from scratch. They can
// also be rebuilt in place for a later state of the same book (Rebuild),
// re-ranking from their previous rank order.
//
// Building or rebuilding a candidate only ranks the book. The list
// schedule is filled on first use — Slots, Slot, TotalExpectedYield or
// Makespan — and kept until the next Rebuild, so a caller that only
// inserts (WithTask) or walks the rank order (Ranked) never
// list-schedules the book. Because that first read fills the candidate
// in place, a Candidate is not safe for concurrent use.
type Candidate struct {
	Now float64

	// Incremental-evaluation context. policy is nil for candidates built
	// without it (internal ScheduledPrice refinement rounds), which makes
	// WithTask report ok=false and callers fall back to a full rebuild.
	policy Policy
	procs  int
	busy   []float64    // copy of the busyUntil passed to BuildCandidate
	keys   []rankKey    // the ranking: priority, ID, index into the ranked book
	tasks  []*task.Task // the ranked tasks, aligned with keys

	// The list schedule of tasks, aligned with them; valid only while
	// listed is set.
	slots  []Slot
	listed bool

	// Rebuild scratch, kept between rebuilds.
	at    []int     // per index of the previous book: its rank, then its index in the new book
	prios []float64 // the book's priorities, aligned with it
	free  freeTimes // processor free times while list-scheduling
}

// BuildCandidate constructs a candidate schedule. busyUntil holds one entry
// per processor occupied by a running task — the time that processor frees
// up; processors beyond len(busyUntil) (up to procs) are idle now. pending
// is ranked by the policy and, on first use of the schedule,
// list-scheduled greedily: each task in priority order claims the
// earliest-free processor.
func BuildCandidate(policy Policy, now float64, procs int, busyUntil []float64, pending []*task.Task) *Candidate {
	c := &Candidate{policy: policy}
	c.Rebuild(now, procs, busyUntil, pending)
	return c
}

// Rebuild makes c the candidate schedule BuildCandidate(policy, now, procs,
// busyUntil, pending) would build, for c's policy, reusing c's storage. c
// must come from BuildCandidate, and nothing c returned earlier (Slots,
// Ranked) may be in use: Rebuild overwrites it, and drops the list
// schedule until it is next read.
//
// The result is exact for any pending, but the ranking starts from c's
// previous rank order, so rebuilding for a later state of the same book
// costs one priority pass plus a sort of an almost ranked sequence. The
// start is best when pending changed from c's book only by
// order-preserving removals and appends, as a site's queue does between
// quotes. The policy prices the book into c's own buffer, so a rebuild
// allocates only when the book or busyUntil outgrows c's storage (or the
// policy allocates scratch of its own, as ScheduledPrice does).
func (c *Candidate) Rebuild(now float64, procs int, busyUntil []float64, pending []*task.Task) {
	c.warmStart(pending)
	c.prios = c.policy.Priorities(c.prios, now, pending)
	rankWithPriorities(c.keys, c.prios, pending)
	c.tasks = resize(c.tasks, len(pending))
	for i, k := range c.keys {
		c.tasks[i] = pending[k.idx]
	}
	c.Now, c.procs = now, procs
	c.busy = append(c.busy[:0], busyUntil...)
	c.listed = false
}

// warmStart leaves in c.keys a permutation of pending's indexes to start
// the ranking from: the tasks of c's book still in pending, in their old
// rank order, then the rest in pending order. One walk over the old book
// in book order pairs its tasks with pending's: a task that is not the
// next unpaired task of pending is taken as removed. Pending changed by
// order-preserving removals and appends pairs every survivor; any other
// change pairs fewer, which only slows the sort.
func (c *Candidate) warmStart(pending []*task.Task) {
	c.at = resize(c.at, len(c.keys))
	for r, k := range c.keys {
		c.at[k.idx] = r
	}
	paired := 0
	for i, r := range c.at {
		c.at[i] = -1
		if paired < len(pending) && c.tasks[r] == pending[paired] {
			c.at[i] = paired
			paired++
		}
	}
	keys := slices.Grow(c.keys[:0], len(pending)) // fills in place when it fits: it never overtakes the reads
	for _, k := range c.keys {
		if j := c.at[k.idx]; j >= 0 {
			keys = append(keys, rankKey{idx: j})
		}
	}
	for j := paired; j < len(pending); j++ {
		keys = append(keys, rankKey{idx: j})
	}
	c.keys = keys
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
// against the base rank keys, and the start time replays list-scheduling
// of the first Pos ranked tasks onto the processors. Cost is O(log n) for
// the search plus O(Pos) for the replay, versus O(n log n) per full
// rebuild — quoting m proposals against one base schedule is
// O(m·(log n + n)) instead of O(m·n log n). It does not read, or fill,
// the base list schedule.
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

	// First rank t would outrank: priorities are non-increasing with
	// ascending-ID ties, so the predicate is monotone and sort.Search
	// applies. RankOrder's comparator is (priority desc, ID asc); t goes
	// before rank i exactly when it wins that comparison.
	pos := sort.Search(len(c.keys), func(i int) bool {
		if key != c.keys[i].prio {
			return key > c.keys[i].prio
		}
		return t.ID < c.keys[i].id
	})

	// Replay list-scheduling of the tasks ahead of t to find the
	// earliest-free processor at its turn. Claims go by value, so the
	// replayed start times match a full rebuild exactly.
	free := newFreeTimes(nil, c.Now, c.procs, c.busy)
	for _, r := range c.tasks[:pos] {
		free.claim(r.RPT)
	}
	at := free[0]
	return Insertion{Slot: Slot{Task: t, Start: at, Completion: at + t.RPT}, Pos: pos}, true
}

// Ranked returns the candidate's tasks in rank order — the order Slots
// lists them in — without list-scheduling them. The slice is the
// candidate's own: callers must not modify it, and a Rebuild overwrites
// it.
func (c *Candidate) Ranked() []*task.Task { return c.tasks }

// Slots returns the list schedule, in expected start order. The first
// call after a build or rebuild list-schedules the ranked tasks; later
// calls return the same slice until a Rebuild overwrites it.
func (c *Candidate) Slots() []Slot {
	if !c.listed {
		c.schedule()
	}
	return c.slots
}

// schedule list-schedules c.tasks, in order, onto c's processors into
// c.slots.
func (c *Candidate) schedule() {
	c.free = newFreeTimes(c.free, c.Now, c.procs, c.busy)
	c.slots = resize(c.slots, len(c.tasks))
	for i, t := range c.tasks {
		at := c.free.claim(t.RPT)
		c.slots[i] = Slot{Task: t, Start: at, Completion: at + t.RPT}
	}
	c.listed = true
}

// freeTimes is a binary min-heap of processor free times, kept in place in
// a plain slice so list-scheduling needs no allocation beyond the slice.
type freeTimes []float64

// newFreeTimes refills h's storage with one entry per busy processor (its
// free time, clamped to now) and one at now per idle processor up to
// procs (at least 1).
func newFreeTimes(h freeTimes, now float64, procs int, busyUntil []float64) freeTimes {
	if procs < 1 {
		procs = 1
	}
	h = slices.Grow(h[:0], max(procs, len(busyUntil)))
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
// highest first. Ties break by task ID, then by position in pending, so
// candidate schedules are deterministic.
func RankOrder(policy Policy, now float64, pending []*task.Task) []*task.Task {
	keys := identityKeys(len(pending))
	rankWithPriorities(keys, policy.Priorities(nil, now, pending), pending)
	out := make([]*task.Task, len(keys))
	for i, k := range keys {
		out[i] = pending[k.idx]
	}
	return out
}

// rankKey is one task's entry in a ranking: its priority, its ID and its
// index in the ranked book.
type rankKey struct {
	prio float64
	id   task.ID
	idx  int
}

// identityKeys returns the keys of a book of n tasks in book order, the
// cold start of a ranking.
func identityKeys(n int) []rankKey {
	keys := make([]rankKey, n)
	for i := range keys {
		keys[i].idx = i
	}
	return keys
}

// compareRank orders keys by priority descending, then ID ascending, then
// book index ascending. On non-NaN priorities this is a total order.
func compareRank(a, b rankKey) int {
	if a.prio != b.prio {
		if a.prio > b.prio {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		if a.id < b.id {
			return -1
		}
		return 1
	}
	return a.idx - b.idx
}

// rankWithPriorities is the one ranking kernel. keys holds each index of
// pending once, in any order; each key takes its task's priority from
// prios and its ID from pending, and keys sort into rank order. Because
// the order is total, the result does not depend on the starting order:
// from the identity it is what a stable sort by (priority desc, ID asc)
// gives. The cost does depend on it: the stable sort runs in near-linear
// time on a start that is already almost ranked.
func rankWithPriorities(keys []rankKey, prios []float64, pending []*task.Task) {
	for i := range keys {
		k := &keys[i]
		k.prio, k.id = prios[k.idx], pending[k.idx].ID
	}
	slices.SortStableFunc(keys, compareRank)
}

// resize returns s with length n, reusing its storage when it is large
// enough and growing it as append does otherwise, so a book that grows one
// task at a time reallocates only now and then. Elements are not cleared.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// Slot returns the slot for a task, if present. With duplicate IDs it
// returns the last such slot.
func (c *Candidate) Slot(id task.ID) (Slot, bool) {
	i := c.find(id)
	if i < 0 {
		return Slot{}, false
	}
	return c.Slots()[i], true
}

// Behind returns the tasks scheduled after the given task in the candidate
// schedule — the tasks that accepting it would delay (Equation 8's
// summation set).
func (c *Candidate) Behind(id task.ID) []*task.Task {
	i := c.find(id)
	if i < 0 {
		return nil
	}
	return slices.Clone(c.tasks[i+1:])
}

// find returns the rank of the last task with id, or -1. A linear scan
// suffices: its callers go on to walk the tasks behind it anyway.
func (c *Candidate) find(id task.ID) int {
	for i := len(c.tasks) - 1; i >= 0; i-- {
		if c.tasks[i].ID == id {
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
	for _, s := range c.Slots() {
		sum += s.ExpectedYield()
	}
	return sum
}

// Makespan returns the latest expected completion in the schedule, or Now
// if it is empty.
func (c *Candidate) Makespan() float64 {
	m := c.Now
	for _, s := range c.Slots() {
		if s.Completion > m {
			m = s.Completion
		}
	}
	return m
}
