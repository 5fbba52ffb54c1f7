package site

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// fig3Config is the Figure 3 site: 16 processors, preemptive, restarting
// preempted work and ranking running tasks at their restart cost.
func fig3Config(p core.Policy) Config {
	return Config{Processors: 16, Policy: p, Preemptive: true,
		PreemptionRestart: true, PreemptRanking: RestartCost}
}

// TestSubmitAllocs is the allocation guard on the site's event path: a
// steady-state Submit on the preemptive PV site — a quote against the
// rebuilt base candidate, admission, and a dispatch event that prices
// pending and running tasks into the site's buffer but starts and
// preempts nothing — allocates the same at 300 and at 2,400 pending tasks,
// and at most once.
// Skipped under the race detector, whose instrumentation allocates.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by the race detector")
	}
	const runs = 50
	var perDepth []float64
	for _, depth := range []int{300, 2400} {
		s := New(sim.New(), "s", fig3Config(core.PresentValue{DiscountRate: 0.01}))
		id := task.ID(0)
		next := func(value float64) *task.Task {
			id++
			return task.New(id, 0, 100, value, 0.5, 0)
		}
		// Sixteen valuable tasks take the processors; cheap ones queue
		// behind them and never outrank them.
		for i := 0; i < 16+depth; i++ {
			v := 1.0
			if i < 16 {
				v = 1e6
			}
			if _, ok, err := s.Submit(next(v)); err != nil || !ok {
				t.Fatalf("submit %d: accepted %v, %v", i, ok, err)
			}
		}
		arrivals := make([]*task.Task, runs+1) // AllocsPerRun adds a warm-up run
		for i := range arrivals {
			arrivals[i] = next(1)
		}
		k := 0
		perDepth = append(perDepth, testing.AllocsPerRun(runs, func() {
			s.Submit(arrivals[k])
			k++
		}))
		if s.RunningLen() != 16 || s.PendingLen() != depth+runs+1 || s.Metrics().Preemptions != 0 {
			t.Fatalf("depth %d: %d running, %d pending, %d preemptions: not the steady state measured",
				depth, s.RunningLen(), s.PendingLen(), s.Metrics().Preemptions)
		}
	}
	if perDepth[0] != perDepth[1] || perDepth[0] > 1 {
		t.Errorf("Submit allocates %.1f times at 300 pending and %.1f at 2400, want one constant ≤ 1", perDepth[0], perDepth[1])
	}
	t.Logf("Submit: %.0f allocs per op", perDepth[0])
}

// BenchmarkSubmitFig3 runs a reduced Figure 3 trace — the Millennium mix
// at value skew 4, 1,000 jobs, on the preemptive restart-cost PV site —
// through the simulator once per op: every submission's quote and
// dispatch, and every completion's dispatch.
func BenchmarkSubmitFig3(b *testing.B) {
	spec := workload.Millennium()
	spec.Jobs, spec.Seed, spec.ValueSkew = 1000, 1, 4
	tr, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := fig3Config(core.PresentValue{DiscountRate: 0.01})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.New()
		ScheduleArrivals(engine, New(engine, "fig3", cfg), tr.Clone())
		b.StartTimer()
		engine.Run()
	}
}
