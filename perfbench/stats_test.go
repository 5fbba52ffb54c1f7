package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/market"
	"repro/internal/task"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so quantile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if _, err := quantile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported; it needs 1000")
	}
	got, err := quantile(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond it)", got, err)
	}
	if got, err := quantile(seq(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestBlockQuantileIgnoresOneStall(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 60; i++ {
		xs[i] = 1000 // a stall inside the first block
	}
	got, err := blockQuantile(xs, 0.99, 5)
	if err != nil || got != 1 {
		t.Errorf("blockQuantile = %v, %v; want 1", got, err)
	}
	if pooled, _ := quantile(xs, 0.99); pooled != 1000 {
		t.Errorf("pooled p99 = %v; the stall should dominate it", pooled)
	}
	// 4999 samples support four blocks of p99, and the stall still
	// moves only one of them.
	if got, err := blockQuantile(xs[:4999], 0.99, 5); err != nil || got != 1 {
		t.Errorf("blockQuantile of 4999 = %v, %v; want 1 from four blocks", got, err)
	}
	if _, err := blockQuantile(xs[:999], 0.99, 5); err == nil {
		t.Error("999 samples reported a p99")
	}
}

// fakeSite answers on a fake clock: each call advances it by its service
// time, and it accepts the tasks listed in accept.
type fakeSite struct {
	now     *time.Duration
	service map[task.ID]time.Duration
	accept  map[task.ID]bool
	award   time.Duration
}

func (f *fakeSite) ProposeDetail(b market.Bid) (market.ServerBid, bool, string, error) {
	*f.now += f.service[b.TaskID]
	if !f.accept[b.TaskID] {
		return market.ServerBid{}, false, "slack below threshold", nil
	}
	return market.ServerBid{SiteID: "s", TaskID: b.TaskID, ExpectedPrice: 5}, true, "", nil
}

func (f *fakeSite) AwardDetail(b market.Bid, sb market.ServerBid) (market.ServerBid, bool, string, error) {
	*f.now += f.award
	return sb, true, "", nil
}

func TestDueTimeAccountingUnderFakeClock(t *testing.T) {
	ms := time.Millisecond
	var now time.Duration
	origin := time.Unix(0, 0)
	clock := func() time.Time { return origin.Add(now) }
	site := &fakeSite{now: &now,
		service: map[task.ID]time.Duration{1: 10 * ms, 2: ms, 3: ms, 4: ms},
		accept:  map[task.ID]bool{3: true}, award: 2 * ms}
	recs := make([]bidRec, 4)
	for i := range recs {
		recs[i] = bidRec{t: task.New(task.ID(i+1), 0, 1, 10, 1, 0), due: time.Duration(i) * ms}
	}
	// One connection: the worker takes each bid when it is due or when the
	// previous one returns, whichever is later.
	for i := range recs {
		now = max(now, recs[i].due)
		recs[i].enq = recs[i].due
		serve(&recs[i], site, origin, clock, nil)
	}
	// The first bid stalls for 10ms; the two behind it each answer in 1ms
	// from send, but 10ms from when they were due.
	for i, r := range recs {
		if i < 3 && r.decision() != 10*ms {
			t.Errorf("bid %d decision %v, want 10ms from its due time", i, r.decision())
		}
		if r.queue()+r.rtt() != r.decision() {
			t.Errorf("bid %d: queue %v + rtt %v != decision %v", i, r.queue(), r.rtt(), r.decision())
		}
	}
	if recs[1].rtt() != ms || recs[1].queue() != 9*ms {
		t.Errorf("bid 1: rtt %v queue %v, want 1ms and 9ms", recs[1].rtt(), recs[1].queue())
	}
	if r := recs[2]; r.outcome != outAwarded || r.award() != 2*ms || r.done() != 12*ms {
		t.Errorf("awarded bid: outcome %v award %v done %v, want awarded, 2ms, 12ms", r.outcome, r.award(), r.done())
	}
	// The award held the connection: the last bid waited for it too.
	if recs[3].decision() != 10*ms+2*ms {
		t.Errorf("bid after the award: decision %v, want 12ms", recs[3].decision())
	}
	if recs[0].outcome != outDeclined {
		t.Errorf("bid 0 outcome %v, want declined", recs[0].outcome)
	}
}

func TestLadderIsMonotoneAndRepeatable(t *testing.T) {
	rungs := ladderRungs(1000, 1.05, 64)
	for _, limit := range []float64{1000, 1200, 4999, 5000, 20000, 1e9} {
		var calls []float64
		probe := func(r float64) bool { calls = append(calls, r); return r <= limit }
		best, probed, ok := climbLadder(rungs, 8, probe)
		want := 0.0
		for _, r := range rungs {
			if r <= limit {
				want = r
			}
		}
		if !ok || best != want {
			t.Errorf("limit %v: best %v ok %v, want %v", limit, best, ok, want)
		}
		first := append([]float64(nil), calls...)
		calls = nil
		best2, probed2, _ := climbLadder(rungs, 8, probe)
		if best2 != best || probed2 != probed || !reflect.DeepEqual(calls, first) {
			t.Errorf("limit %v: second search differs: %v/%d vs %v/%d", limit, best2, probed2, best, probed)
		}
		if probed > len(rungs)/8+8 {
			t.Errorf("limit %v: %d probes", limit, probed)
		}
	}
	// A probe that passes again above a failure never lifts the result
	// past the failure.
	noisy := func(r float64) bool { return r < 2000 || r > 3000 }
	if best, _, _ := climbLadder(rungs, 8, noisy); best >= 2000 {
		t.Errorf("noisy probe: best %v reported above the failing rung", best)
	}
	if _, _, ok := climbLadder(rungs, 8, func(float64) bool { return false }); ok {
		t.Error("a failing first rung reported a result")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bid", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bid": 100 - 50 - 10, // children cover [10,60] and [90,100]
		"a":   30,
		"b":   30 - 10 + 30,
		"c":   10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.record(0, 0, 1, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	ran := false
	tr.timed("x", 0, 0, func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the timed call")
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metric table
// the program prints from.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the program prints %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"fleet-topk", "paper-sim"}) {
		t.Errorf("workloads %v", names)
	}
}
