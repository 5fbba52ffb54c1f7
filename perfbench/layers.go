package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/task"
	"repro/internal/wire"
)

// The per-layer timings below come from the benchmark's own calls into
// each module's public functions, on inputs drawn from the run.

// codecLayer replays envelopes through a codec's Append and Read.
func codecLayer(name string, envs []wire.Envelope, tr *tracer) (map[string]float64, error) {
	codec, ok := wire.CodecByName(name)
	if !ok {
		return nil, fmt.Errorf("codec %q not registered", name)
	}
	const reps = 5
	var frames bytes.Buffer
	buf := make([]byte, 0, 512)
	var ms0, ms1 runtime.MemStats
	var err error
	start := time.Now()
	runtime.ReadMemStats(&ms0)
	for r := 0; r < reps; r++ {
		for i := range envs {
			if buf, err = codec.Append(buf[:0], &envs[i]); err != nil {
				return nil, err
			}
			if r == 0 {
				frames.Write(buf)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	enc := time.Since(start)
	tr.record(0, 0, 0, "wire.codec.append", start, start.Add(enc))
	n := float64(len(envs) * reps)
	m := map[string]float64{
		"wire.codec.encode_ns":        float64(enc) / n,
		"wire.codec.bytes_per_frame":  float64(frames.Len()) / float64(len(envs)),
		"wire.codec.allocs_per_frame": float64(ms1.Mallocs-ms0.Mallocs) / n,
	}
	raw := frames.Bytes()
	var scratch []byte
	var e wire.Envelope
	start = time.Now()
	for r := 0; r < reps; r++ {
		br := bufio.NewReader(bytes.NewReader(raw))
		for range envs {
			if err := codec.Read(br, 0, &scratch, &e); err != nil {
				return nil, err
			}
		}
	}
	dec := time.Since(start)
	tr.record(0, 0, 0, "wire.codec.read", start, start.Add(dec))
	m["wire.codec.decode_ns"] = float64(dec) / n
	return m, nil
}

// phaseEnvelopes rebuilds the envelopes a phase put on the wire: each bid,
// its quote reply, and for accepted quotes the award and contract.
func phaseEnvelopes(out phaseOut) []wire.Envelope {
	var envs []wire.Envelope
	for _, r := range out.recs {
		b := market.BidFromTask(r.t)
		b.Arrival = 0
		envs = append(envs, wire.BidEnvelope(b))
		if r.awarded == 0 {
			envs = append(envs, wire.Envelope{Type: wire.TypeReject, TaskID: b.TaskID, SiteID: "site-00", Reason: "slack below threshold"})
			continue
		}
		sb := market.ServerBid{SiteID: "site-00", TaskID: b.TaskID, ExpectedCompletion: r.t.Arrival + r.t.Runtime, ExpectedPrice: r.expected}
		envs = append(envs, wire.Envelope{Type: wire.TypeServerBid, TaskID: b.TaskID, SiteID: sb.SiteID,
			ExpectedCompletion: sb.ExpectedCompletion, ExpectedPrice: sb.ExpectedPrice})
		envs = append(envs, wire.AwardEnvelope(b, sb))
		envs = append(envs, wire.Envelope{Type: wire.TypeContract, TaskID: b.TaskID, SiteID: sb.SiteID,
			ExpectedCompletion: sb.ExpectedCompletion, ExpectedPrice: sb.ExpectedPrice})
	}
	return envs
}

// book is a pending queue drawn from the trace: depth consecutive tasks
// released by now, processors busy until after now, and one more task to
// quote against it.
type book struct {
	now     float64
	busy    []float64
	pending []*task.Task
	bid     *task.Task
}

func drawBooks(tasks []*task.Task, depth, n int, seed int64) []book {
	rng := rand.New(rand.NewSource(seed))
	depth = max(1, min(depth, len(tasks)-siteProcs-2))
	books := make([]book, n)
	for i := range books {
		at := rng.Intn(len(tasks) - depth - siteProcs - 1)
		var b book
		for _, t := range tasks[at : at+depth] {
			b.pending = append(b.pending, t.Clone())
		}
		b.bid = tasks[at+depth].Clone()
		b.now = b.bid.Arrival
		b.bid.Arrival = b.now
		for _, t := range tasks[at+depth+1 : at+depth+1+siteProcs] {
			b.busy = append(b.busy, b.now+t.Runtime)
		}
		books[i] = b
	}
	return books
}

// perCall times fn over every book index, several times, and returns the
// median per-call time in microseconds.
func perCall(n int, name string, tr *tracer, fn func(i int)) float64 {
	var per []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start)
		tr.record(0, 0, 0, name, start, start.Add(d))
		per = append(per, float64(d)/1e3/float64(n))
	}
	return median(per)
}

// coreLayer times the quote path's core and admission calls on books at
// the given depth, under the site's policy.
func coreLayer(tasks []*task.Task, depth int, seed int64, tr *tracer) map[string]float64 {
	pol := sitePolicy()
	books := drawBooks(tasks, depth, 200, seed)
	n := len(books)
	cands := make([]*core.Candidate, n)
	ins := make([]core.Insertion, n)
	ok := make([]bool, n)
	m := map[string]float64{}
	m["core.build_candidate_us"] = perCall(n, "core.build_candidate", tr, func(i int) {
		b := &books[i]
		cands[i] = core.BuildCandidate(pol, b.now, siteProcs, b.busy, b.pending)
	})
	m["core.with_task_us"] = perCall(n, "core.with_task", tr, func(i int) {
		ins[i], ok[i] = cands[i].WithTask(books[i].bid)
	})
	m["admission.evaluate_insertion_us"] = perCall(n, "admission.evaluate_insertion", tr, func(i int) {
		if ok[i] {
			admission.EvaluateInsertion(books[i].bid, cands[i], ins[i], discountRate)
		}
	})
	m["core.plan_starts_us"] = perCall(n, "core.plan_starts", tr, func(i int) {
		core.PlanStarts(pol, books[i].now, 1, books[i].pending)
	})
	return m
}

// contractRecordBytes is the mean journal record size of a site-journal
// run (contract and settle records), the record size the durable layer is
// timed at when the workload journals nothing.
const contractRecordBytes = 140

// durableLayer drives a fresh journal on the run's filesystem the way the
// site does: conc writers each append a record of size bytes and wait on
// the group-commit barrier. It also reports the journal's own group-commit
// accounting: records per fsync round and rounds per appended record.
func durableLayer(dir string, size, conc, perWriter int, tr *tracer) (map[string]float64, error) {
	var rounds, batched atomic.Int64
	j, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways, OnBatch: func(_ uint64, records, _ int) {
		rounds.Add(1)
		batched.Add(int64(records))
	}})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	payload := bytes.Repeat([]byte{'x'}, size)
	var mu sync.Mutex
	var appendUs, syncUs []float64
	var wg sync.WaitGroup
	var firstErr error
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, s []float64
			for i := 0; i < perWriter; i++ {
				t0 := time.Now()
				idx, err := j.AppendBatched(payload)
				t1 := time.Now()
				if err == nil {
					err = j.SyncBarrier(idx)
				}
				t2 := time.Now()
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				tr.record(0, 0, 0, "durable.append_batched", t0, t1)
				tr.record(0, 0, 0, "durable.sync_barrier", t1, t2)
				a = append(a, float64(t1.Sub(t0))/1e3)
				s = append(s, float64(t2.Sub(t1))/1e3)
			}
			mu.Lock()
			appendUs, syncUs = append(appendUs, a...), append(syncUs, s...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if cerr := j.Close(); firstErr == nil {
		firstErr = cerr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	m := map[string]float64{
		"durable.append_us":        mean(appendUs),
		"durable.records_per_sync": float64(batched.Load()) / float64(rounds.Load()),
		"durable.syncs_per_award":  float64(rounds.Load()) / float64(len(appendUs)),
	}
	if m["durable.sync_us_p50"], err = quantile(syncUs, 0.5); err != nil {
		return nil, err
	}
	if m["durable.sync_us_p99"], err = quantile(syncUs, 0.99); err != nil {
		return nil, err
	}
	return m, nil
}

// journalRecordBytes is the mean record size a run's journal holds.
func journalRecordBytes(dir string, records float64) int {
	var total int64
	files, _ := filepath.Glob(filepath.Join(dir, "*", "wal-*.log"))
	more, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, f := range append(files, more...) {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	if records <= 0 || total == 0 {
		return 256
	}
	return int(float64(total) / records)
}

// ledgerLayer times one contract's Open and Settle on a fresh ledger.
func ledgerLayer(n int, tr *tracer) float64 {
	l := obs.NewLedger(obs.LedgerConfig{Site: "bench"})
	start := time.Now()
	for i := 1; i <= n; i++ {
		l.Open(obs.LedgerEntry{Task: uint64(i), BidValue: 10, QuotedPrice: 8, ExpectedCompletion: float64(i)})
		l.Settle(uint64(i), obs.OutcomeSettled, float64(i)+1, 7.5)
	}
	d := time.Since(start)
	tr.record(0, 0, 0, "obs.ledger.open_settle", start, start.Add(d))
	return float64(d) / float64(n)
}
