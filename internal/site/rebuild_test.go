package site

import (
	"math"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/workload"
)

// sameQuoteBits reports whether two quotes agree bit for bit.
func sameQuoteBits(a, b admission.Quote) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.TaskID == b.TaskID && same(a.Now, b.Now) && same(a.ExpectedStart, b.ExpectedStart) &&
		same(a.ExpectedCompletion, b.ExpectedCompletion) && same(a.ExpectedYield, b.ExpectedYield) &&
		same(a.PresentValue, b.PresentValue) && same(a.Cost, b.Cost) && same(a.Slack, b.Slack)
}

// TestSubmitQuoteMatchesColdBuild replays reduced paper traces — the
// Figure 3 point (preemptive, restart-cost ranking) and the Figure 7
// accept-all point — and checks every Submit against a cold quote: a
// fresh core.BuildCandidate over pending plus the task, priced by
// admission.Evaluate. The site answers from a base candidate it rebuilds
// in place from the previous rank order, so this pins that warm rebuilds
// across starts, completions, preemptions and arrivals quote exactly as a
// cold build does.
func TestSubmitQuoteMatchesColdBuild(t *testing.T) {
	fig3 := workload.Millennium()
	fig3.Jobs, fig3.Seed, fig3.ValueSkew = 1000, 3, 4
	fig3Site := func(p core.Policy) Config {
		return Config{Processors: 16, Policy: p, Preemptive: true,
			PreemptionRestart: true, PreemptRanking: RestartCost}
	}
	fig7 := workload.Default()
	fig7.Jobs, fig7.Seed = 800, 3
	fig7.Processors, fig7.ValueSkew, fig7.DecaySkew, fig7.Bound, fig7.Load = 1, 3, 5, math.Inf(1), 1.33

	for _, tc := range []struct {
		name string
		spec workload.Spec
		cfg  Config
	}{
		{"fig3.pv", fig3, fig3Site(core.PresentValue{DiscountRate: 0.01})},
		{"fig3.firstprice", fig3, fig3Site(core.FirstPrice{})},
		{"fig7.acceptall", fig7, Config{Processors: 1, Policy: core.FirstReward{Alpha: 0.2, DiscountRate: 0.01},
			Admission: admission.AcceptAll{}, DiscountRate: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := workload.Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			engine := sim.New()
			s := New(engine, tc.name, tc.cfg)
			maxPending := 0
			for _, tk := range tr.Tasks {
				tk := tk
				engine.At(tk.Arrival, func() {
					now := engine.Now()
					with := append(append([]*task.Task(nil), s.pending...), tk)
					cold := core.BuildCandidate(s.cfg.Policy, now, s.procs, s.busyUntil(now), with)
					want, err := admission.Evaluate(tk, cold, s.cfg.DiscountRate)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := s.Submit(tk)
					if err != nil {
						t.Fatal(err)
					}
					if !sameQuoteBits(got, want) {
						t.Fatalf("task %d at %g with %d pending: quote %v, cold build %v", tk.ID, now, len(with)-1, got, want)
					}
					maxPending = max(maxPending, len(with)-1)
				})
			}
			engine.Run()
			m := s.Metrics()
			if m.Completed != len(tr.Tasks) {
				t.Fatalf("%d of %d tasks completed", m.Completed, len(tr.Tasks))
			}
			// The comparison only says something if quotes were rebuilt over
			// a real queue.
			if m.QuoteBuilds < len(tr.Tasks)/2 || maxPending < 50 {
				t.Fatalf("%d quote builds, pending peaked at %d: the trace does not exercise rebuilds", m.QuoteBuilds, maxPending)
			}
			if tc.cfg.Preemptive && m.Preemptions == 0 {
				t.Fatal("no preemptions: the trace does not exercise re-appended tasks")
			}
			t.Logf("%d quote builds, pending peaked at %d, %d preemptions", m.QuoteBuilds, maxPending, m.Preemptions)
		})
	}
}
