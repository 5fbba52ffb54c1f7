// Command perfbench is the market service's benchmark: three seeded
// workloads (site-journal, fleet-topk, paper-sim) measured end to end with
// tracing off, and per layer in a separate traced run. See README.md.
//
//	perfbench --workload site-journal --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is the result: correct, attempted,
// failed and the metrics by name with their units. The line before it is
// the full report, with the host and validity record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/task"
)

// lagLimit is the validity threshold on the generator: a phase whose
// dispatcher p99 lateness exceeds it measured the generator, not the
// system, and is not reported. An invalid reference phase is run again on
// a fresh system, up to refAttempts times in all.
const (
	lagLimit    = 20 * time.Millisecond
	refAttempts = 3
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// report is everything a run observed, printed before the result.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Host       host               `json:"host"`
	Valid      bool               `json:"valid"`
	Invalid    string             `json:"invalid,omitempty"`
	LagLimitMs float64            `json:"gen_lag_limit_ms"`
	Pacing     map[string]float64 `json:"pacing,omitempty"`
	Ladder     []map[string]any   `json:"ladder,omitempty"`
	Checks     []string           `json:"failed_checks,omitempty"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Tails      map[string]float64 `json:"highest_percentile,omitempty"`
	Refused    []string           `json:"refused_percentiles,omitempty"`
	Yields     map[string]string  `json:"yields,omitempty"`
	Golden     string             `json:"golden,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`

	attempted, failed int
}

func main() {
	name := flag.String("workload", "", "site-journal | fleet-topk | paper-sim")
	seed := flag.Int64("seed", 1, "workload seed; the system under test sees only the generated inputs")
	seconds := flag.Int("seconds", 12, "measurement time per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	rep := &report{Workload: *name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1,
		LagLimitMs: float64(lagLimit) / 1e6, Metrics: map[string]float64{}, Samples: map[string]int{}}
	var err error
	switch *name {
	case "site-journal":
		err = runNet(siteJournal, rep)
	case "fleet-topk":
		err = runNet(fleetTopK, rep)
	case "paper-sim":
		err = runPaperSim(rep)
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fatal(err)
	}
	rep.Metrics["max_rss_mb"] = maxRSSMB()
	rep.Valid = rep.Invalid == ""

	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Valid {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", rep.Invalid)
		os.Exit(3)
	}
	res := result{Correct: len(rep.Checks) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricVal{}}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok && !rep.Traced { // a per-layer metric a workload does not exercise is 0
			fatal(fmt.Errorf("metric %s was not measured", d.name))
		}
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	}
	for _, c := range rep.Checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// tails records the highest percentile a sample set supports under the
// percentile rule.
func (rep *report) tails(name string, n int) {
	if p, ok := highestPercentile(n); ok {
		if rep.Tails == nil {
			rep.Tails = map[string]float64{}
		}
		rep.Tails[name] = p
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// validate records the generator's lateness and reports why the phase is
// invalid, or "" when it is valid.
func (rep *report) validate(out phaseOut) string {
	var lag []float64
	for _, r := range out.recs {
		lag = append(lag, float64(r.lag())/1e6)
	}
	p99, err := quantile(lag, 0.99)
	if err != nil {
		return err.Error()
	}
	rep.Metrics["gen.lag_ms_p99"] = p99
	if p99 > float64(lagLimit)/1e6 {
		return fmt.Sprintf("generator p99 lateness %.3f ms exceeds the %.0f ms limit", p99, float64(lagLimit)/1e6)
	}
	return ""
}

// refPhase runs the reference phase, first on the set-up system and again
// on a fresh one while the generator ran too late to be valid. Every
// attempt's outputs are checked.
func refPhase(w *netWorkload, rep *report, run *netRun, n int, tr *tracer, sampled bool) (phaseOut, *env, []float64, []float64, error) {
	e := run.refEnv
	for attempt := 1; ; attempt++ {
		var sample func()
		var depth, ages *[]float64
		if sampled {
			sample, depth, ages = sampler(e)
		}
		out, err := runOpenLoop(e.clients, w.split, run.tr.Tasks[:n], run.refPacing.due[:n], tr, sample)
		if err != nil {
			e.close()
			return out, nil, nil, nil, err
		}
		rep.Checks = append(rep.Checks, check(e, out)...)
		rep.Invalid = rep.validate(out)
		if rep.Invalid == "" || attempt == refAttempts {
			if depth == nil {
				return out, e, nil, nil, nil
			}
			return out, e, *depth, *ages, nil
		}
		rep.Samples["invalid_attempts"]++
		e.close()
		if e, err = w.start(run.refPacing.scale, conns()); err != nil {
			return out, nil, nil, nil, err
		}
	}
}

// refBids is the reference phase's length: the run's seconds at the
// reference rate.
func refBids(w *netWorkload, seconds int) int {
	return int(w.refRate * float64(seconds))
}

func runNet(w *netWorkload, rep *report) error {
	n := refBids(w, rep.Seconds)
	reps := setupReps
	if rep.Traced {
		reps = 1
	}
	run, err := w.setUp(rep.Seed, n, reps)
	if err != nil {
		return err
	}
	rep.Host = hostRecord(".bench_build", len(run.refEnv.clients))
	if run.refEnv.dir != "" {
		rep.Host.JournalFS = fsType(run.refEnv.dir)
	}
	if rep.Host.Conns > rep.Host.CPUs {
		return fmt.Errorf("%d connections exceed the %d CPUs", rep.Host.Conns, rep.Host.CPUs)
	}
	rep.Pacing = map[string]float64{
		"ref_rate_bids_per_s":   w.refRate,
		"wall_us_per_sim_unit":  float64(run.refPacing.scale) / 1e3,
		"site_timescale_us":     float64(run.refPacing.scale) / 1e3,
		"load_factor":           loadFactor,
		"latency_limit_ms":      float64(w.limit) / 1e6,
		"trace_mean_gap_units":  meanGap(run.tr),
		"reference_phase_bids":  float64(n),
		"setup_reps":            float64(reps),
		"drain_timeout_seconds": drainTimeout.Seconds(),
	}
	rep.Metrics["setup_s"] = median(run.setup)
	rep.Metrics["workload.generate_ms"] = median(run.genMs)

	out, e, _, _, err := refPhase(w, rep, run, n, nil, false)
	if err != nil {
		return err
	}
	e.close()
	if rep.Invalid != "" {
		return nil
	}
	base, err := w.e2e(out)
	if err != nil {
		return err
	}
	rep.attempted = len(out.recs)
	rep.failed = countOutcome(out.recs, outFailed, outAwarded, outPending)
	rep.Samples["reference_bids"] = len(out.recs)
	rep.Samples["reference_awards"] = countOutcome(out.recs, outSettled, outDefaulted)
	rep.tails("quotes", rep.Samples["reference_bids"])
	rep.tails("awards", rep.Samples["reference_awards"])

	if !rep.Traced {
		merge(rep.Metrics, base)
		return nil
	}
	if err := tracedNet(w, rep, run, base); err != nil || rep.Invalid != "" {
		return err
	}
	best, log, err := w.ladder(rep.Seed)
	rep.Ladder = log
	rep.Metrics["ladder.max_rate_bids_per_s"] = best
	return err
}

// tracedNet runs the reference phase again with spans on, and the layer
// microbenchmarks on inputs drawn from it.
func tracedNet(w *netWorkload, rep *report, run *netRun, base map[string]float64) error {
	n := rep.Samples["reference_bids"]
	tr := newTracer()
	var err error
	if run.refEnv, err = w.start(run.refPacing.scale, conns()); err != nil {
		return err
	}
	out, e, depth, ages, err := refPhase(w, rep, run, n, tr, true)
	if err != nil {
		return err
	}
	defer e.close()
	if rep.Invalid != "" {
		return nil
	}
	rep.failed += countOutcome(out.recs, outFailed, outAwarded, outPending)
	rep.attempted += len(out.recs)
	traced, err := w.e2e(out)
	if err != nil {
		return err
	}
	rep.Metrics["trace.overhead_frac"] = traced["cpu_ms_per_bid"]/base["cpu_ms_per_bid"] - 1
	for k, v := range base {
		if strings.HasPrefix(k, "tail.") {
			rep.Metrics[k] = v // tails from the untraced phase, like every latency
		}
	}
	lm, refused, err := layerMetrics(e, out, depth, ages)
	if err != nil {
		return err
	}
	rep.Refused = refused
	lm["wire.client.dial_ms"] = median(run.dialMs)
	for k, v := range lm {
		if k != "gen.lag_ms_p99" {
			rep.Metrics[k] = v
		}
	}
	rep.Samples["queue_depth"] = len(depth)
	rep.Samples["digest_age"] = len(ages)

	cm, err := codecLayer(e.clients[0].NegotiatedCodec(), phaseEnvelopes(out), tr)
	if err != nil {
		return err
	}
	merge(rep.Metrics, cm)
	merge(rep.Metrics, coreLayer(run.tr.Tasks, int(lm["site.queue_depth_p50"]), rep.Seed, tr))
	rep.Metrics["obs.ledger.open_settle_ns"] = ledgerLayer(20000, tr)
	// The durable layer is timed on every network workload, on the run's
	// filesystem; a journaling site's own group-commit counts take
	// precedence over the microbenchmark's.
	size := contractRecordBytes
	if e.dir != "" {
		records := 0.0
		for _, s := range e.sites {
			sc, err := scrapeReg(s.reg)
			if err != nil {
				return err
			}
			records += sc.sum("site_journal_batch_records_total")
		}
		size = journalRecordBytes(e.dir, records)
	}
	dir, err := workDir(fmt.Sprintf("durable-%d", os.Getpid()))
	if err != nil {
		return err
	}
	rep.Pacing["journal_record_bytes"] = float64(size)
	dm, err := durableLayer(dir, size, conns(), 600, tr)
	if err != nil {
		return err
	}
	if e.dir != "" {
		delete(dm, "durable.records_per_sync")
		delete(dm, "durable.syncs_per_award")
	}
	merge(rep.Metrics, dm)
	bids := float64(len(out.recs))
	self := selfTimes(tr.snapshot())
	for _, name := range []string{"bid", "gen.queue", "wire.client.bid", "award.queue", "wire.client.award"} {
		rep.Metrics["self."+name+"_us"] = float64(self[name]) / 1e3 / bids
	}
	// The layers must account for each bid: its child spans tile the root,
	// and on a directly driven site transport time cannot be negative.
	if unclaimed := rep.Metrics["self.bid_us"]; unclaimed > accountingTolUs {
		rep.Checks = append(rep.Checks, fmt.Sprintf("%.3f us per bid claimed by no layer (tolerance %g us)", unclaimed, accountingTolUs))
	}
	if e.broker == nil && rep.Metrics["wire.transport.bid_us_mean"] < 0 {
		rep.Checks = append(rep.Checks, fmt.Sprintf("server bid mean exceeds the client's by %.1f us", -rep.Metrics["wire.transport.bid_us_mean"]))
	}
	return writeSpans(rep, tr)
}

// accountingTolUs is the time per bid the layers may leave unclaimed.
const accountingTolUs = 1.0

func writeSpans(rep *report, tr *tracer) error {
	dir, err := workDir("spans")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.jsonl", dir, rep.Workload, rep.Seed)
	rep.SpansFile = path
	return tr.write(path)
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// runPaperSim times the two paper points on the simulator: set-up is trace
// generation; the measured part repeats full passes over both points until
// the run's time is spent.
func runPaperSim(rep *report) error {
	rep.Host = hostRecord(".bench_build", 0)
	reps := setupReps
	if rep.Traced {
		reps = 1
	}
	points := paperPoints(rep.Seed)
	var traces [][]*task.Task
	var setups, gens []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		traces = traces[:0]
		for _, p := range points {
			tr, err := generate(p.spec)
			if err != nil {
				return err
			}
			traces = append(traces, tr)
		}
		d := time.Since(start)
		setups, gens = append(setups, d.Seconds()), append(gens, float64(d)/1e6)
	}
	rep.Metrics["setup_s"] = median(setups)
	rep.Metrics["workload.generate_ms"] = median(gens)

	pass := func(tr *tracer) (map[string]simOut, time.Duration) {
		outs := map[string]simOut{}
		start := time.Now()
		for i, p := range points {
			for _, sc := range p.configs {
				outs[sc.name] = runSim(cloneTasks(traces[i]), sc, tr)
			}
		}
		return outs, time.Since(start)
	}
	yields := func(outs map[string]simOut) map[string]float64 {
		y := map[string]float64{}
		for k, o := range outs {
			y[k] = o.metrics.TotalYield
		}
		return y
	}
	verify := func(outs map[string]simOut) {
		names := make([]string, 0, len(outs))
		for k := range outs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			rep.Checks = append(rep.Checks, checkSim(k, outs[k])...)
		}
		errs, ok := checkGolden(rep.Seed, yields(outs))
		rep.Checks = append(rep.Checks, errs...)
		if ok {
			rep.Golden = "matched stored yields"
		} else {
			rep.Golden = "no stored yields for this seed; checked across passes"
		}
	}

	var passes []map[string]simOut
	var walls []time.Duration
	budget := time.Duration(rep.Seconds) * time.Second
	if rep.Traced {
		untraced, wall := pass(nil)
		tr := newTracer()
		traced, twall := pass(tr)
		passes, walls = []map[string]simOut{untraced, traced}, []time.Duration{wall, twall}
		rep.Metrics["trace.overhead_frac"] = float64(twall)/float64(wall) - 1
		if err := simLayers(rep, traced, traces[0], tr); err != nil {
			return err
		}
		if err := writeSpans(rep, tr); err != nil {
			return err
		}
	} else {
		began := time.Now()
		for len(passes) < 2 || time.Since(began) < budget {
			outs, wall := pass(nil)
			passes, walls = append(passes, outs), append(walls, wall)
		}
	}
	for _, outs := range passes {
		verify(outs)
	}
	first := yields(passes[0])
	rep.Yields = map[string]string{}
	for k, y := range first {
		rep.Yields[k] = strconv.FormatFloat(y, 'g', -1, 64)
		for i, outs := range passes[1:] {
			if outs[k].metrics.TotalYield != y {
				rep.Checks = append(rep.Checks, fmt.Sprintf("%s: pass %d yield %v differs from pass 0's %v", k, i+1, outs[k].metrics.TotalYield, y))
			}
		}
	}
	if rep.Traced {
		// Latencies come from the untraced pass; both passes were checked.
		err := simE2E(rep, passes[:1], walls[:1])
		rep.attempted *= len(passes)
		return err
	}
	return simE2E(rep, passes, walls)
}
