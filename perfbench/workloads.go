package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/workload"
)

// cohorts is the bursty interactive+batch mix of the workload engine:
// many small interactive clients with a Zipf-skewed rate split on Gamma
// arrivals next to a few heavy batch submitters on Weibull arrivals.
func cohorts() []workload.Cohort {
	return []workload.Cohort{
		{Name: "interactive", Weight: 1, Clients: 8, ClientSkew: 1, MeanRuntime: 1.5,
			ArrivalKind: workload.DistGamma, ArrivalCV: 2},
		{Name: "batch", Weight: 1, Clients: 2, MeanRuntime: 6, BatchSize: 4,
			ArrivalKind: workload.DistWeibull, ArrivalCV: 1.5},
	}
}

// loadFactor is the offered load of both network traces: slightly over
// capacity, so declines, defaults and decay all happen.
const loadFactor = 1.1

func cohortTrace(seed int64, jobs, procs int, env workload.Envelope) (*workload.Trace, error) {
	spec := workload.Default()
	spec.Jobs = jobs
	spec.Seed = seed
	spec.Processors = procs
	spec.Load = loadFactor
	spec.Cohorts = cohorts()
	spec.Envelope = env
	return workload.Generate(spec)
}

// dirSeq numbers the journal directories of one process.
var dirSeq atomic.Int64

// siteJournal is one journaled site driven directly.
var siteJournal = &netWorkload{
	refRate: 600,
	base:    1500,
	split:   true,
	limit:   200 * time.Millisecond,
	procs:   siteProcs,
	trace: func(seed int64, jobs, procs int) (*workload.Trace, error) {
		return cohortTrace(seed, jobs, procs, nil)
	},
	start: func(scale time.Duration, n int) (*env, error) {
		dir, err := workDir(fmt.Sprintf("journal-%d-%d", os.Getpid(), dirSeq.Add(1)))
		if err != nil {
			return nil, err
		}
		e := &env{dir: dir}
		s, err := startSite("site-00", dir, scale)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sites = append(e.sites, s)
		if err := e.dialAll(s.srv.Addr(), n); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	},
}

// fleetSites is the size of the routed fleet.
const fleetSites = 16

// fleetTopK is a top-k broker over memory-only sites; clients reach the
// broker only.
var fleetTopK = &netWorkload{
	refRate: 400,
	base:    1600,
	limit:   200 * time.Millisecond,
	procs:   fleetSites * siteProcs,
	trace: func(seed int64, jobs, procs int) (*workload.Trace, error) {
		return cohortTrace(seed, jobs, procs, workload.Envelope{
			{Amplitude: 0.4, Period: 300},
			{Amplitude: 0.2, Period: 80},
		})
	},
	start: func(scale time.Duration, n int) (*env, error) {
		e := &env{}
		var addrs []string
		for i := 0; i < fleetSites; i++ {
			s, err := startSite(fmt.Sprintf("site-%02d", i), "", scale)
			if err != nil {
				e.close()
				return nil, err
			}
			e.sites = append(e.sites, s)
			addrs = append(addrs, s.srv.Addr())
		}
		e.breg = obs.NewRegistry()
		b, err := wire.NewBrokerServer("127.0.0.1:0", wire.BrokerConfig{
			SiteAddrs: addrs,
			Route:     wire.RouteTopK,
			TopK:      brokerTopK,
			Metrics:   e.breg,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.broker = b
		if err := e.awaitDigests(5 * time.Second); err != nil {
			e.close()
			return nil, err
		}
		if err := e.dialAll(b.Addr(), n); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	},
}

// awaitDigests waits until every site has pushed its first load digest to
// the broker, so routing starts from fresh digests.
func (e *env) awaitDigests(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range e.sites {
		pushes := s.reg.Counter("site_digest_push_total", "", "site").With(s.id)
		for pushes.Value() < 1 {
			if time.Now().After(deadline) {
				return fmt.Errorf("site %s pushed no digest within %v", s.id, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
