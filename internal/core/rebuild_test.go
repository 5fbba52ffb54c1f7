package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// bookEditor applies random edits to a pending book of one kind, the way
// a site's queue and processors change between quotes.
type bookEditor struct {
	rng    *rand.Rand
	kind   bookKind
	nextID task.ID
}

// fresh returns one new task of the editor's kind.
func (e *bookEditor) fresh(size int) *task.Task {
	t := oracleBook(e.rng, e.kind, 1)[0]
	if e.kind == duplicateBook {
		t.ID = task.ID(1 + e.rng.Intn(size/3+1))
	} else {
		e.nextID++
		t.ID = e.nextID
	}
	return t
}

// edit returns the book after one random edit. It never mutates book's
// elements in place except for a re-appended task's RPT, as preemption
// does.
func (e *bookEditor) edit(book []*task.Task) (out []*task.Task, what string) {
	rng := e.rng
	out = append([]*task.Task(nil), book...)
	switch op := rng.Intn(10); {
	case op < 3 && len(out) > 0: // order-preserving removals: starts, completions, parks
		for k := 1 + rng.Intn(3); k > 0 && len(out) > 0; k-- {
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		}
		return out, "remove"
	case op < 6: // arrivals
		for k := 1 + rng.Intn(3); k > 0; k-- {
			out = append(out, e.fresh(len(book)+1))
		}
		return out, "append"
	case op < 8 && len(out) > 0: // preemption: a task leaves and comes back last
		i := rng.Intn(len(out))
		t := out[i]
		out = append(out[:i], out[i+1:]...)
		t.RPT = t.Runtime * (0.1 + 0.9*rng.Float64())
		return append(out, t), "preempt"
	case op < 9: // a book with new pointers, in the same or a shuffled order
		for i, t := range out {
			out[i] = t.Clone()
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out, "replace-shuffled"
		}
		return out, "replace"
	default: // drain, so rebuilds pass through the empty book
		if rng.Intn(4) == 0 {
			return nil, "drain"
		}
		return out, "none"
	}
}

// sameCandidate reports the first difference between a rebuilt candidate
// and a cold one, or "". It probes got's insertions before and after
// reading its list schedule, so a lazy schedule that leaks into WithTask,
// or a stale one, shows up as a difference.
func sameCandidate(got, want *Candidate, probes []*task.Task) string {
	if math.Float64bits(got.Now) != math.Float64bits(want.Now) || got.procs != want.procs {
		return fmt.Sprintf("now %v procs %d, want now %v procs %d", got.Now, got.procs, want.Now, want.procs)
	}
	if len(got.tasks) != len(want.tasks) || len(got.keys) != len(want.keys) {
		return fmt.Sprintf("%d tasks, %d keys; want %d, %d", len(got.tasks), len(got.keys), len(want.tasks), len(want.keys))
	}
	for i := range want.tasks {
		if got.tasks[i] != want.tasks[i] {
			return fmt.Sprintf("task %d = %d, want %d", i, got.tasks[i].ID, want.tasks[i].ID)
		}
		if math.Float64bits(got.keys[i].prio) != math.Float64bits(want.keys[i].prio) {
			return fmt.Sprintf("priority %d = %v, want %v", i, got.keys[i].prio, want.keys[i].prio)
		}
	}
	if diff := sameInsertions(got, want, probes, "unread schedule"); diff != "" {
		return diff
	}
	gs, ws := got.Slots(), want.Slots()
	if len(gs) != len(ws) {
		return fmt.Sprintf("%d slots, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if !sameBits(gs[i], ws[i]) {
			return fmt.Sprintf("slot %d = %+v, want %+v", i, gs[i], ws[i])
		}
	}
	return sameInsertions(got, want, probes, "read schedule")
}

// sameInsertions reports the first probe got inserts differently from
// want, or "".
func sameInsertions(got, want *Candidate, probes []*task.Task, when string) string {
	for _, pr := range probes {
		g, gok := got.WithTask(pr)
		w, wok := want.WithTask(pr)
		if gok != wok || g.Pos != w.Pos || !sameBits(g.Slot, w.Slot) {
			return fmt.Sprintf("%s: WithTask(%d) = %+v ok=%v, want %+v ok=%v", when, pr.ID, g, gok, w, wok)
		}
	}
	return ""
}

// TestRebuildMatchesBuildCandidate is the differential test for warm
// rebuilds: under every shipped policy, through random sequences of
// removals, arrivals, preemptions, whole-book replacements, clock steps
// and processor changes, a candidate rebuilt in place has the slots,
// priorities, task order and insertions of a fresh BuildCandidate, bit
// for bit. Each comparison reads the rebuilt list schedule, so most
// rebuilds start from a candidate whose schedule was read and must drop
// it; some steps rebuild twice, the first time for an intermediate book
// nobody reads, and insertions are probed both before and after the
// schedule is first read.
func TestRebuildMatchesBuildCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			ed := &bookEditor{rng: rng, kind: kind, nextID: 1000}
			book := oracleBook(rng, kind, 80)
			now, procs := 60.0, 3
			busy := oracleBusy(now)[2]
			c := BuildCandidate(p, now, procs, busy, book)
			for step := 0; step < 60; step++ {
				var what string
				if rng.Intn(3) == 0 {
					var mid []*task.Task
					mid, what = ed.edit(book)
					c.Rebuild(now+1, procs+1, busy, mid)
					book, what = mid, what+"+unread"
				}
				var edit string
				book, edit = ed.edit(book)
				what += edit
				if rng.Intn(2) == 0 {
					now += rng.Float64() * 20
					what += "+clock"
				}
				if rng.Intn(4) == 0 {
					procs = rng.Intn(6)
					busy = oracleBusy(now)[rng.Intn(4)]
					what += "+procs"
				}
				probes := []*task.Task{ed.fresh(len(book) + 1), ed.fresh(len(book) + 1)}
				if len(book) > 0 {
					probes = append(probes, book[rng.Intn(len(book))].Clone())
				}
				c.Rebuild(now, procs, busy, book)
				if diff := sameCandidate(c, BuildCandidate(p, now, procs, busy, book), probes); diff != "" {
					t.Fatalf("%s %v step %d (%s, n=%d): %s", p.Name(), kind, step, what, len(book), diff)
				}
			}
		}
	}
}

// TestRankStartIndependent: the ranking kernel's result does not depend
// on the permutation it starts from, and from the identity it is the
// stable sort by (priority desc, ID asc) that RankOrder has always
// returned.
func TestRankStartIndependent(t *testing.T) {
	const now = 60.0
	rng := rand.New(rand.NewSource(67))
	for _, p := range planPolicies() {
		for _, kind := range oracleKinds() {
			for _, n := range []int{0, 1, 2, 25, 300} {
				book := oracleBook(rng, kind, n)
				prios := p.Priorities(now, book)
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				sortByPriority(want, prios, book)

				keys := identityKeys(n)
				for trial := 0; trial < 4; trial++ {
					rankWithPriorities(keys, prios, book)
					for i, k := range keys {
						if k.idx != want[i] {
							t.Fatalf("%s %v n=%d trial %d: rank %d is index %d, want %d", p.Name(), kind, n, trial, i, k.idx, want[i])
						}
					}
					rng.Shuffle(n, func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
				}
			}
		}
	}
}

// BenchmarkCandidateRebuild times one quote's base candidate after one
// book edit (a task leaves the book and re-enters it last) and one clock
// step: warm rebuilds in place from the previous rank order, cold builds
// from scratch.
func BenchmarkCandidateRebuild(b *testing.B) {
	busy := []float64{1010, 1050, 1100, 1200}
	for _, mode := range []string{"warm", "cold"} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				book := benchTasks(n, false)
				rng := rand.New(rand.NewSource(71))
				now := 1000.0
				c := BuildCandidate(FirstPrice{}, now, 16, busy, book)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := rng.Intn(n)
					t := book[j]
					copy(book[j:], book[j+1:])
					book[n-1] = t
					now++
					if mode == "warm" {
						c.Rebuild(now, 16, busy, book)
					} else {
						c = BuildCandidate(FirstPrice{}, now, 16, busy, book)
					}
				}
			})
		}
	}
}
