package site

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// preemptRegimes are the three valid preemption regimes.
var preemptRegimes = []struct {
	name    string
	ranking PreemptRanking
	restart bool
}{
	{"shield", ShieldProgress, false},
	{"shield+restart", ShieldProgress, true},
	{"restartcost+restart", RestartCost, true},
}

// tieHeavyTrace returns n tasks drawn from a few runtimes, values and
// decays, arriving six at a time at whole times: equal priorities are
// common, so order often falls to the ID tie-break.
func tieHeavyTrace(rng *rand.Rand, n int) []*task.Task {
	out := make([]*task.Task, n)
	at := 0.0
	for i := range out {
		if i%6 == 0 {
			at += float64(rng.Intn(40))
		}
		runtime := []float64{10, 20, 40}[rng.Intn(3)]
		value := []float64{100, 200}[rng.Intn(2)]
		decay := []float64{0.5, 1}[rng.Intn(2)]
		out[i] = task.New(task.ID(i+1), at, runtime, value, decay, math.Inf(1))
	}
	return out
}

// preemptRun is what one preemptive run decided: its start, preempt,
// complete and park events, in order, and its metrics.
type preemptRun struct {
	events []Event
	m      Metrics
}

// runPreemptive runs tasks on a fresh site, through the reference paths
// when oracle is set, growing capacity by 3 at grow and shrinking it by 4
// at shrink.
func runPreemptive(tasks []*task.Task, cfg Config, oracle bool, grow, shrink float64) preemptRun {
	if oracle {
		cfg.Policy = opaquePolicy{cfg.Policy}
	}
	log := &Log{}
	engine := sim.New()
	s := New(engine, "s", cfg, WithRecorder(log))
	ScheduleArrivals(engine, s, tasks)
	engine.At(grow, func() { s.GrowCapacity(3) })
	engine.At(shrink, func() { s.ShrinkCapacity(4) })
	engine.Run()
	var r preemptRun
	for _, e := range log.Events {
		switch e.Kind {
		case EventStart, EventPreempt, EventComplete, EventPark:
			r.events = append(r.events, e)
		}
	}
	r.m = s.Metrics()
	return r
}

// diffRuns reports the first difference between two runs, or "".
func diffRuns(got, want preemptRun) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range min(len(got.events), len(want.events)) {
		g, w := got.events[i], want.events[i]
		if g.Kind != w.Kind || g.TaskID != w.TaskID || !same(g.Time, w.Time) || !same(g.Value, w.Value) {
			return fmt.Sprintf("event %d = %v task %d @%v (%v), oracle %v task %d @%v (%v)",
				i, g.Kind, g.TaskID, g.Time, g.Value, w.Kind, w.TaskID, w.Time, w.Value)
		}
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("%d events, oracle %d", len(got.events), len(want.events))
	}
	g, w := got.m, want.m
	if !same(g.TotalYield, w.TotalYield) || !same(g.TotalDelay, w.TotalDelay) || g.Completed != w.Completed {
		return fmt.Sprintf("yield %v delay %v completed %d, oracle %v %v %d",
			g.TotalYield, g.TotalDelay, g.Completed, w.TotalYield, w.TotalDelay, w.Completed)
	}
	return ""
}

// TestPreemptiveDispatchMatchesOracle is the differential test for the
// single-pass preemptive dispatcher: for every per-task policy, and for
// FirstReward, under every preemption regime, a run must start, preempt,
// complete and park the same tasks at the same instants as a run of the
// same policy through the reference paths (opaquePolicy), and realize
// bit-identical yields and delays. One trace is deep, bounded and parks
// expired tasks; the other is tie-heavy. Both grow and shrink capacity
// mid-run.
func TestPreemptiveDispatchMatchesOracle(t *testing.T) {
	const procs = 4 // each run starts with; both traces overload it
	deep := workload.Default()
	deep.Jobs, deep.Processors, deep.Load, deep.Seed = 300, procs, 2, 29
	deep.ValueSkew, deep.DecaySkew, deep.Bound = 3, 5, 0
	deepTrace, err := workload.Generate(deep)
	if err != nil {
		t.Fatal(err)
	}
	ties := tieHeavyTrace(rand.New(rand.NewSource(31)), 300)

	policies := []core.Policy{
		core.FCFS{},
		core.SRPT{},
		core.SWPT{},
		core.FirstPrice{},
		core.PresentValue{DiscountRate: 0.01},
		core.FirstReward{Alpha: 0.3, DiscountRate: 0.01},
	}
	for _, regime := range preemptRegimes {
		preemptions := 0
		for _, policy := range policies {
			for _, tc := range []struct {
				name  string
				tasks func() []*task.Task
				park  bool // ParkExpired, and the run must park tasks
				last  float64
			}{
				{"deep", deepTrace.Clone, true, deepTrace.Tasks[len(deepTrace.Tasks)-1].Arrival},
				{"ties", func() []*task.Task {
					out := make([]*task.Task, len(ties))
					for i, tk := range ties {
						out[i] = tk.Clone()
					}
					return out
				}, false, ties[len(ties)-1].Arrival},
			} {
				cfg := Config{Processors: procs, Policy: policy, Preemptive: true,
					PreemptionRestart: regime.restart, PreemptRanking: regime.ranking, ParkExpired: tc.park}
				grow, shrink := tc.last/3, 2*tc.last/3
				got := runPreemptive(tc.tasks(), cfg, false, grow, shrink)
				want := runPreemptive(tc.tasks(), cfg, true, grow, shrink)
				if diff := diffRuns(got, want); diff != "" {
					t.Fatalf("%s %s %s: %s", regime.name, policy.Name(), tc.name, diff)
				}
				if got.m.RankOps > want.m.RankOps {
					t.Errorf("%s %s %s: %d rank ops, oracle %d", regime.name, policy.Name(), tc.name, got.m.RankOps, want.m.RankOps)
				}
				parked := 0
				for _, e := range got.events {
					if e.Kind == EventPark {
						parked++
					}
				}
				if tc.park && parked == 0 {
					t.Errorf("%s %s %s: nothing parked", regime.name, policy.Name(), tc.name)
				}
				preemptions += got.m.Preemptions
			}
		}
		if preemptions == 0 {
			t.Errorf("%s: no preemptions in any run: the traces do not exercise the swap loop", regime.name)
		}
		t.Logf("%s: %d preemptions across runs", regime.name, preemptions)
	}
}
