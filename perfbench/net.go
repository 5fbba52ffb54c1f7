package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/workload"
)

// netWorkload is an open-loop workload against the live service: how to
// generate its trace and how to stand up the system at a time scale.
type netWorkload struct {
	refRate float64       // bids/s at which latency and yield are reported
	base    float64       // the rate ladder's first rung
	split   bool          // separate quote and award connections
	limit   time.Duration // latency limit on the quote p99 and on each bid's decision
	procs   int           // processors across the system, for the trace's load factor
	trace   func(seed int64, jobs, procs int) (*workload.Trace, error)
	start   func(scale time.Duration, conns int) (*env, error)
}

// pacing maps a trace onto wall time at rate bids/s: the due offset of
// every task, and the wall time of one simulation unit, which the sites
// use as their time scale so the trace's load factor reaches the book.
type pacing struct {
	scale time.Duration
	due   []time.Duration
}

func pace(tasks []*task.Task, meanGap, rate float64) pacing {
	perUnit := float64(time.Second) / (rate * meanGap)
	p := pacing{scale: time.Duration(perUnit)}
	first := tasks[0].Arrival
	for _, t := range tasks {
		p.due = append(p.due, time.Duration((t.Arrival-first)*perUnit))
	}
	return p
}

// meanGap is the trace's mean inter-arrival gap in simulation units.
func meanGap(tr *workload.Trace) float64 {
	first, last := tr.Span()
	return (last - first) / float64(len(tr.Tasks)-1)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// conns is the generator's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }

// netRun holds what a network run measured.
type netRun struct {
	setup     []float64 // seconds per set-up
	genMs     []float64 // trace generation per set-up
	dialMs    []float64
	tr        *workload.Trace
	refPacing pacing
	refEnv    *env
}

// setUp generates the trace and stands up the system setupReps times,
// keeping the last one running for the reference phase.
func (w *netWorkload) setUp(seed int64, jobs int, reps int) (*netRun, error) {
	run := &netRun{}
	for i := 0; i < reps; i++ {
		start := time.Now()
		tr, err := w.trace(seed, jobs, w.procs)
		if err != nil {
			return nil, err
		}
		run.genMs = append(run.genMs, float64(time.Since(start))/1e6)
		p := pace(tr.Tasks, meanGap(tr), w.refRate)
		e, err := w.start(p.scale, conns())
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(start).Seconds())
		run.dialMs = append(run.dialMs, e.dialMs...)
		if i < reps-1 {
			e.close()
			continue
		}
		run.tr, run.refPacing, run.refEnv = tr, p, e
	}
	return run, nil
}

// phaseAt runs the first n trace tasks at rate on a fresh system.
func (w *netWorkload) phaseAt(tr *workload.Trace, rate float64, n int, tracer *tracer) (phaseOut, *env, error) {
	p := pace(tr.Tasks, meanGap(tr), rate)
	e, err := w.start(p.scale, conns())
	if err != nil {
		return phaseOut{}, nil, err
	}
	out, err := runOpenLoop(e.clients, w.split, tr.Tasks[:n], p.due[:n], tracer, nil)
	return out, e, err
}

// passes is a ladder rung's verdict, with the quote p99 it judged: the
// p99 meets the limit and the generator's backlog did not grow: over the
// last quarter of the schedule, the mean wait for a quote connection and
// for an award connection each stay under half the limit.
func (w *netWorkload) passes(out phaseOut) (bool, time.Duration) {
	var dec, qTail, aTail []float64
	failed := false
	for i, r := range out.recs {
		dec = append(dec, float64(r.decision()))
		if i >= len(out.recs)*3/4 {
			qTail = append(qTail, float64(r.queue()))
			if r.awarded > 0 {
				aTail = append(aTail, float64(r.awardSent-r.replied))
			}
		}
		failed = failed || r.outcome == outFailed || r.outcome == outAwarded
	}
	p99, err := blockQuantile(dec, 0.99, rungBlocks)
	half := float64(w.limit) / 2
	return !failed && err == nil && p99 <= float64(w.limit) && mean(qTail) <= half && mean(aTail) <= half, time.Duration(p99)
}

// e2e computes a phase's end-to-end metrics.
func (w *netWorkload) e2e(out phaseOut) (map[string]float64, error) {
	var dec, aw []float64
	met, expected, realized := 0, 0.0, 0.0
	for _, r := range out.recs {
		dec = append(dec, float64(r.decision())/1e6)
		if r.awarded > 0 {
			aw = append(aw, float64(r.award())/1e6)
		}
		if r.outcome != outFailed && r.done() <= w.limit {
			met++
		}
		if r.outcome == outSettled || r.outcome == outDefaulted {
			expected += r.expected
			realized += r.final
		}
	}
	m := map[string]float64{}
	for _, q := range []pct{
		{"quote_p50_ms", dec, 0.5}, {"tail.quote_p90_ms", dec, 0.9}, {"tail.quote_p99_ms", dec, 0.99},
		{"award_p50_ms", aw, 0.5}, {"tail.award_p90_ms", aw, 0.9}, {"tail.award_p99_ms", aw, 0.99},
	} {
		v, err := blockQuantile(q.xs, q.p, refBlocks)
		switch {
		case err == nil:
			m[q.name] = v
		case q.p < 0.99: // p99 is reported only where the samples allow
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
	}
	n := float64(len(out.recs))
	m["slo_met_frac"] = float64(met) / n
	m["realized_yield"] = realized
	m["yield_ratio"] = realized / expected
	m["cpu_ms_per_bid"] = float64(out.cpu) / 1e6 / n
	m["sim_jobs_per_s"] = n / out.elapsed.Seconds()
	return m, nil
}

func countOutcome(recs []bidRec, which ...outcome) int {
	n := 0
	for _, r := range recs {
		for _, o := range which {
			if r.outcome == o {
				n++
			}
		}
	}
	return n
}

// check verifies a phase's outputs against the servers' own accounts:
// every bid reached exactly one terminal outcome, the servers counted the
// same outcomes, and each site's ledger realized what its settlements
// paid.
func check(e *env, out phaseOut) []string {
	var errs []string
	n := map[outcome]int{}
	perSite := map[string]float64{}
	pushed := 0
	for _, r := range out.recs {
		n[r.outcome]++
		if r.outcome == outSettled || r.outcome == outDefaulted {
			perSite[r.site] += r.final
		}
		if r.pushed {
			pushed++
		}
	}
	if n[outPending] > 0 || n[outAwarded] > 0 {
		errs = append(errs, fmt.Sprintf("%d bids never decided, %d contracts unresolved after the drain", n[outPending], n[outAwarded]))
	}
	awarded := n[outSettled] + n[outDefaulted]
	var sites []scrape
	for _, s := range e.sites {
		sc, err := scrapeReg(s.reg)
		if err != nil {
			return append(errs, err.Error())
		}
		sites = append(sites, sc)
		got, want := s.ledger.RealizedTotal(), perSite[s.id]
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
			errs = append(errs, fmt.Sprintf("site %s ledger realized %.12g, client settlements sum %.12g", s.id, got, want))
		}
	}
	eq := func(what string, server float64, client int) {
		if server != float64(client) {
			errs = append(errs, fmt.Sprintf("%s: server counted %g, client %d", what, server, client))
		}
	}
	eq("awards accepted", scrapeAll(sites, "site_tasks_total", "event", "accepted"), awarded)
	eq("tasks completed", scrapeAll(sites, "site_tasks_total", "event", "completed"), n[outSettled])
	if e.broker == nil {
		eq("bids and awards declined", scrapeAll(sites, "site_tasks_total", "event", "rejected"), n[outDeclined])
		eq("bids shed", scrapeAll(sites, "site_shed_total"), n[outShed])
		eq("settlements delivered", scrapeAll(sites, "market_settlements_total", "result", "delivered"), pushed)
		return errs
	}
	b, err := scrapeReg(e.breg)
	if err != nil {
		return append(errs, err.Error())
	}
	eq("broker placed", b.sum("market_negotiations_total", "role", "broker", "outcome", "placed"), awarded)
	eq("broker declined", b.sum("market_negotiations_total", "role", "broker", "outcome", "declined"), n[outDeclined]+n[outShed])
	eq("broker failed", b.sum("market_negotiations_total", "role", "broker", "outcome", "failed"), n[outFailed])
	eq("settlements relayed", b.sum("market_settlements_total", "role", "broker", "result", "relayed"), pushed)
	return errs
}

// ladder searches the fixed rate ladder from its base rung for the
// highest rung that meets the limit. Each rung runs on a fresh system with
// the time scale matched to its rate, so the load factor is the same on
// every rung.
func (w *netWorkload) ladder(seed int64) (float64, []map[string]any, error) {
	tr, err := w.trace(seed, ladderJobs(w), w.procs)
	if err != nil {
		return 0, nil, err
	}
	var log []map[string]any
	var runErr error
	probe := func(rate float64) bool {
		n := rungBids(rate, len(tr.Tasks))
		out, e, err := w.phaseAt(tr, rate, n, nil)
		if e != nil {
			e.close()
		}
		if err != nil {
			runErr = err
			return false
		}
		pass, p99 := w.passes(out)
		log = append(log, map[string]any{"rate": rate, "bids": n, "quote_p99_ms": float64(p99) / 1e6, "pass": pass})
		return pass
	}
	// A rung fails only when a second probe fails too, so one stall on a
	// shared host does not end the climb.
	best, _, ok := climbLadder(ladderRungs(w.base, ladderStep, ladderLen), ladderStride, func(rate float64) bool {
		return runErr == nil && (probe(rate) || runErr == nil && probe(rate))
	})
	if !ok {
		best = 0
	}
	return best, log, runErr
}

// The rate ladder: rungs 5% apart from the base rate, searched eight rungs
// (a factor of 1.48) at a time.
const (
	ladderStep   = 1.05
	ladderLen    = 48
	ladderStride = 8
)

// Percentiles are medians over consecutive blocks, as many as the
// percentile rule allows: up to refBlocks in the reference phase, up to
// rungBlocks on a ladder rung.
const (
	refBlocks  = 12
	rungBlocks = 3
)

// rungBids sizes a ladder rung: a second and a half of schedule, so a
// growing backlog shows, and never fewer than its blocks' p99s need.
func rungBids(rate float64, have int) int {
	return min(have, max(rungBlocks*1000, int(1.5*rate)))
}

// ladderJobs is how many tasks the ladder's trace needs: enough for its
// top rung.
func ladderJobs(w *netWorkload) int {
	top := ladderRungs(w.base, ladderStep, ladderLen)[ladderLen-1]
	return rungBids(top, math.MaxInt)
}

// layerMetrics derives one phase's per-layer metrics from its records,
// the registries and the samples. A percentile the samples cannot support
// is left out and named in refused.
func layerMetrics(e *env, out phaseOut, depth, ages []float64) (m map[string]float64, refused []string, err error) {
	m = map[string]float64{}
	var lag, q, aq, bid, aw []float64
	accepted := 0
	for _, r := range out.recs {
		lag = append(lag, float64(r.lag())/1e6)
		q = append(q, float64(r.queue())/1e6)
		bid = append(bid, float64(r.rtt())/1e3)
		if r.awarded > 0 {
			aq = append(aq, float64(r.awardSent-r.replied)/1e6)
			aw = append(aw, float64(r.awardRTT())/1e3)
			accepted++
		}
	}
	quantiles := []pct{
		{"gen.lag_ms_p99", lag, 0.99}, {"gen.queue_ms_p99", q, 0.99}, {"gen.award_queue_ms_p99", aq, 0.99},
		{"wire.client.bid_us_p50", bid, 0.5}, {"wire.client.bid_us_p99", bid, 0.99},
		{"wire.client.award_us_p50", aw, 0.5}, {"wire.client.award_us_p99", aw, 0.99},
		{"site.queue_depth_p50", depth, 0.5}, {"site.queue_depth_p99", depth, 0.99},
	}
	if e.broker != nil {
		quantiles = append(quantiles, pct{"broker.digest_age_ms_p99", ages, 0.99})
	}
	for _, x := range quantiles {
		v, err := quantile(x.xs, x.p)
		if err != nil {
			refused = append(refused, x.name+": "+err.Error())
			continue
		}
		m[x.name] = v
	}
	bids := float64(len(out.recs))
	var sites []scrape
	maxAccepted := 0.0
	for _, s := range e.sites {
		sc, err := scrapeReg(s.reg)
		if err != nil {
			return nil, nil, err
		}
		sites = append(sites, sc)
		maxAccepted = math.Max(maxAccepted, sc.sum("site_tasks_total", "event", "accepted"))
	}
	all := func(name string, kv ...string) float64 { return scrapeAll(sites, name, kv...) }
	awards := all("site_tasks_total", "event", "accepted")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	serverBid := ratio(all("wire_rpc_seconds_sum", "type", "bid"), all("wire_rpc_seconds_count", "type", "bid")) * 1e6
	m["wire.server.bid_us_mean"] = serverBid
	m["wire.server.award_us_mean"] = ratio(all("wire_rpc_seconds_sum", "type", "award"), all("wire_rpc_seconds_count", "type", "award")) * 1e6
	locked := all("site_quote_snapshot_quotes_total", "path", "locked")
	m["site.snapshot.locked_quote_frac"] = ratio(locked, locked+all("site_quote_snapshot_quotes_total", "path", "snapshot"))
	m["site.snapshot.revalidate_miss_frac"] = ratio(all("site_quote_snapshot_validate_total", "result", "mismatch"), all("site_quote_snapshot_validate_total"))
	m["site.snapshot.publishes_per_award"] = ratio(all("site_quote_snapshot_publishes_total"), awards)
	m["site.rank_ops_per_award"] = ratio(all("site_dispatch_rank_ops"), awards)
	m["site.quote_reuse_frac"] = ratio(all("site_quote_reuse", "result", "hit"), all("site_quote_reuse"))
	m["admission.accept_frac"] = float64(accepted) / bids
	m["site.shed_frac"] = float64(countOutcome(out.recs, outShed)) / bids
	m["site.lateness_units_mean"] = ratio(all("market_settlement_lateness_sum"), all("market_settlement_lateness_count"))
	m["durable.records_per_sync"] = ratio(all("site_journal_batch_records_total"), all("site_journal_batch_syncs_total"))
	m["durable.syncs_per_award"] = ratio(all("site_journal_batch_syncs_total"), awards)
	// Transport is the client's bid mean less the handler mean of the site
	// that answers it; behind a broker it includes the broker's hop.
	m["wire.transport.bid_us_mean"] = mean(bid) - serverBid
	if e.broker == nil {
		return m, refused, nil
	}
	b, err := scrapeReg(e.breg)
	if err != nil {
		return nil, nil, err
	}
	hedges := b.sum("broker_hedge_total")
	m["broker.site_rpcs_per_bid"] = (b.sum("broker_routed_total") + hedges) / bids
	m["broker.route_fallback_frac"] = b.sum("broker_route_fallback_total") / bids
	m["broker.hedge_frac"] = hedges / bids
	m["broker.candidates_mean"] = ratio(b.sum("broker_route_candidates_sum"), b.sum("broker_route_candidates_count"))
	m["broker.overhead_us_mean"] = m["wire.transport.bid_us_mean"]
	m["broker.award_share_max"] = ratio(maxAccepted, awards)
	return m, refused, nil
}

// sampler returns a function that records the sites' queue depths (and a
// broker's digest ages) each time it runs.
func sampler(e *env) (func(), *[]float64, *[]float64) {
	var depth, ages []float64
	var gauges, ageGauges []*obs.Gauge
	for _, s := range e.sites {
		gauges = append(gauges, s.reg.Gauge("site_queue_depth", "", "site").With(s.id))
		if e.broker != nil {
			ageGauges = append(ageGauges, e.breg.Gauge("broker_digest_age_seconds", "", "site").With(s.srv.Addr()))
		}
	}
	return func() {
		for _, g := range gauges {
			depth = append(depth, g.Value())
		}
		for _, g := range ageGauges {
			ages = append(ages, g.Value()*1e3)
		}
	}, &depth, &ages
}
