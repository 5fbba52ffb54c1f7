package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/market"
	"repro/internal/task"
	"repro/internal/wire"
)

// outcome is where one bid ended. Every bid ends in exactly one of the
// terminal outcomes; outAwarded is a contract still waiting to settle.
type outcome uint8

const (
	outPending outcome = iota
	outDeclined
	outShed
	outFailed
	outAwarded
	outSettled
	outDefaulted
)

// bidRec is one scheduled bid as the generator saw it. Times are offsets
// from the phase origin: due is when the schedule wanted it sent, enq when
// the dispatcher queued it, sent when a quote connection took it, replied
// when the quote decision came back, awardSent when an award connection
// took the award, and awarded when the contract was acknowledged (zero
// when no award was sent).
type bidRec struct {
	t         *task.Task
	due       time.Duration
	enq       time.Duration
	sent      time.Duration
	replied   time.Duration
	awardSent time.Duration
	awarded   time.Duration
	outcome   outcome
	offer     market.ServerBid // the accepted quote, awarded next
	site      string
	expected  float64 // contract's quoted expected price
	final     float64 // settlement price, penalties negative
	pushed    bool    // settled by a push rather than a query
	span      uint64  // the bid's root span, when tracing
}

// lag is how late the dispatcher ran; queue is the wait for a free quote
// connection; decision is due to quote decision; award is the award's due
// time (the quote reply) to its acknowledgement, including the wait for a
// free award connection.
func (r *bidRec) lag() time.Duration      { return r.enq - r.due }
func (r *bidRec) queue() time.Duration    { return r.sent - r.due }
func (r *bidRec) decision() time.Duration { return r.replied - r.due }
func (r *bidRec) rtt() time.Duration      { return r.replied - r.sent }
func (r *bidRec) award() time.Duration    { return r.awarded - r.replied }
func (r *bidRec) awardRTT() time.Duration { return r.awarded - r.awardSent }

// done is due to the final answer: the contract ack for awarded bids,
// the quote reply otherwise.
func (r *bidRec) done() time.Duration {
	if r.awarded > 0 {
		return r.awarded - r.due
	}
	return r.decision()
}

// caller is the part of wire.SiteClient the generator drives.
type caller interface {
	ProposeDetail(market.Bid) (market.ServerBid, bool, string, error)
	AwardDetail(market.Bid, market.ServerBid) (market.ServerBid, bool, string, error)
}

func liveBid(t *task.Task) market.Bid {
	bid := market.BidFromTask(t)
	bid.Arrival = 0 // live protocol: release is the submission instant
	return bid
}

// quote sends one scheduled bid and records the decision, stamping each
// step from clock relative to origin. It reports whether the quote was
// accepted, with the offer kept for the award.
func quote(r *bidRec, c caller, origin time.Time, clock func() time.Time, tr *tracer) bool {
	sentAt := clock()
	r.sent = sentAt.Sub(origin)
	sb, ok, reason, err := c.ProposeDetail(liveBid(r.t))
	repAt := clock()
	r.replied = repAt.Sub(origin)
	r.span = tr.id()
	tr.record(0, r.span, uint64(r.t.ID), "gen.queue", origin.Add(r.due), sentAt)
	tr.record(0, r.span, uint64(r.t.ID), "wire.client.bid", sentAt, repAt)
	switch {
	case err != nil:
		r.outcome = outFailed
	case !ok && wire.IsShedReason(reason):
		r.outcome = outShed
	case !ok:
		r.outcome = outDeclined
	default:
		r.offer = sb
		return true
	}
	tr.record(r.span, 0, uint64(r.t.ID), "bid", origin.Add(r.due), repAt)
	return false
}

// award commits an accepted quote and records the contract.
func award(r *bidRec, c caller, origin time.Time, clock func() time.Time, tr *tracer) {
	sentAt := clock()
	r.awardSent = sentAt.Sub(origin)
	terms, ok, reason, err := c.AwardDetail(liveBid(r.t), r.offer)
	end := clock()
	r.awarded = end.Sub(origin)
	tr.record(0, r.span, uint64(r.t.ID), "award.queue", origin.Add(r.replied), sentAt)
	tr.record(0, r.span, uint64(r.t.ID), "wire.client.award", sentAt, end)
	tr.record(r.span, 0, uint64(r.t.ID), "bid", origin.Add(r.due), end)
	switch {
	case err != nil:
		r.outcome = outFailed
	case !ok && wire.IsShedReason(reason):
		r.outcome = outShed
	case !ok:
		r.outcome = outDeclined
	default:
		r.outcome, r.site, r.expected = outAwarded, terms.SiteID, terms.ExpectedPrice
	}
}

// serve carries one bid through its quote and, when accepted, its award
// on the same connection: the single-connection form of the generator.
func serve(r *bidRec, c caller, origin time.Time, clock func() time.Time, tr *tracer) {
	if quote(r, c, origin, clock, tr) {
		award(r, c, origin, clock, tr)
	}
}

// settlements collects settlement pushes, which can race the award reply.
type settlements struct {
	mu     sync.Mutex
	prices map[task.ID]float64
}

func newSettlements() *settlements { return &settlements{prices: map[task.ID]float64{}} }

func (s *settlements) push(e wire.Envelope) {
	s.mu.Lock()
	s.prices[e.TaskID] = e.FinalPrice
	s.mu.Unlock()
}

func (s *settlements) get(id task.ID) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.prices[id]
	return p, ok
}

// phaseOut is one open-loop phase's raw record.
type phaseOut struct {
	recs    []bidRec
	elapsed time.Duration // schedule origin to the last decision
	cpu     time.Duration // process user+sys from the first due time to the last decision
}

// lanes splits the connections into quote and award lanes; with a single
// connection there is no award lane.
func lanes(clients []*wire.SiteClient) (quoters, awarders []*wire.SiteClient) {
	if len(clients) < 2 {
		return clients, nil
	}
	half := len(clients) / 2
	return clients[:half], clients[half:]
}

// drainTimeout bounds the wait for awarded contracts to settle.
const drainTimeout = 20 * time.Second

// runOpenLoop sends each task at its due offset over the given clients: a
// dispatcher queues bids on schedule, quote workers take the next queued
// bid, and every accepted quote is awarded at once. With split and two or
// more connections, half carry quotes and the rest awards, so a quote
// never waits behind a contract's journal sync; otherwise each connection
// awards its own accepted quotes.
//
// A slow reply delays later bids, and that wait shows in their due-time
// latency. It then drains: awarded contracts settle by push, and
// stragglers are queried. sample, when non-nil, runs every few
// milliseconds during the schedule.
func runOpenLoop(clients []*wire.SiteClient, split bool, tasks []*task.Task, due []time.Duration, tr *tracer, sample func()) (phaseOut, error) {
	out := phaseOut{recs: make([]bidRec, len(tasks))}
	for i, t := range tasks {
		out.recs[i] = bidRec{t: t, due: due[i]}
	}
	st := newSettlements()
	for _, c := range clients {
		c.SetOnSettled(st.push)
	}
	cpu0 := cpuTime()

	stop := make(chan struct{})
	var sampWG sync.WaitGroup
	if sample != nil {
		sampWG.Add(1)
		go func() {
			defer sampWG.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					sample()
				}
			}
		}()
	}

	origin := time.Now().Add(20 * time.Millisecond)
	work := make(chan int, len(tasks))
	awards := make(chan int, len(tasks))
	quoters, awarders := clients, []*wire.SiteClient(nil)
	if split {
		quoters, awarders = lanes(clients)
	}
	var qwg, awg sync.WaitGroup
	for _, c := range quoters {
		qwg.Add(1)
		go func(c *wire.SiteClient) {
			defer qwg.Done()
			for i := range work {
				r := &out.recs[i]
				if awarders == nil {
					serve(r, c, origin, time.Now, tr)
				} else if quote(r, c, origin, time.Now, tr) {
					awards <- i
				}
			}
		}(c)
	}
	for _, c := range awarders {
		awg.Add(1)
		go func(c *wire.SiteClient) {
			defer awg.Done()
			for i := range awards {
				award(&out.recs[i], c, origin, time.Now, tr)
			}
		}(c)
	}
	for i := range out.recs {
		r := &out.recs[i]
		if d := time.Until(origin.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		r.enq = time.Since(origin)
		work <- i
	}
	close(work)
	qwg.Wait()
	close(awards)
	awg.Wait()
	close(stop)
	sampWG.Wait()
	out.cpu = cpuTime() - cpu0
	for _, r := range out.recs {
		out.elapsed = max(out.elapsed, r.replied, r.awarded)
	}

	return out, drain(out.recs, st, clients, tr)
}

// drain waits for every awarded contract to settle, then queries the
// stragglers. Contracts still open after the timeout stay outAwarded and
// fail the run's checks.
func drain(recs []bidRec, st *settlements, clients []*wire.SiteClient, tr *tracer) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		open := 0
		for i := range recs {
			r := &recs[i]
			if r.outcome != outAwarded {
				continue
			}
			if p, ok := st.get(r.t.ID); ok {
				r.outcome, r.final, r.pushed = outSettled, p, true
				continue
			}
			open++
		}
		if open == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := range recs {
		r := &recs[i]
		if r.outcome != outAwarded {
			continue
		}
		var cs wire.ContractStatus
		var err error
		tr.timed("wire.client.query", 0, uint64(r.t.ID), func() { cs, err = clients[0].Query(r.t.ID) })
		if err != nil {
			return fmt.Errorf("query task %d: %w", r.t.ID, err)
		}
		switch cs.State {
		case wire.ContractSettled:
			r.outcome, r.final = outSettled, cs.FinalPrice
		case wire.ContractDefaulted:
			r.outcome, r.final = outDefaulted, cs.FinalPrice
		}
	}
	return nil
}
