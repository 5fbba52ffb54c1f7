package wire

import (
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Circuit breaker states, exported on broker_circuit_state{site} in this
// numeric encoding so dashboards can graph transitions directly.
const (
	circuitClosed   = 0
	circuitHalfOpen = 1
	circuitOpen     = 2
)

func circuitStateName(s int) string {
	switch s {
	case circuitHalfOpen:
		return "half-open"
	case circuitOpen:
		return "open"
	}
	return "closed"
}

// Defaults for the broker's per-site health machinery (DESIGN.md §15).
const (
	defaultCircuitFailures = 3
	defaultCircuitCooldown = time.Second
	defaultRetryBudget     = 0.25
	retryTokenCap          = 8
	// latWindow is how many recent call latencies feed the hedge-delay
	// quantile and the slow-call detector.
	latWindow = 64
	// hedgeQuantile is the latency quantile a hedge fires past.
	hedgeQuantile = 0.9
	// hedgeDelayMin/Max clamp the adaptive hedge delay: never hedge
	// faster than the floor (a healthy site answering in microseconds
	// does not need a second lane) and never wait longer than the cap.
	hedgeDelayMin = 5 * time.Millisecond
	hedgeDelayMax = time.Second
	// slowFactor marks a success slower than slowFactor×EWMA as a soft
	// failure: it feeds the breaker's failure streak without resetting
	// it, so a site that answers but crawls still trips open.
	slowFactor = 8
)

// siteHealth is the broker's per-site health state machine: a
// closed/open/half-open circuit breaker fed by RPC errors and a latency
// EWMA, a token-bucket retry budget, and a window of recent latencies
// that prices the adaptive hedge delay. One instance lives per site for
// the broker's lifetime; every site call reports its outcome here.
type siteHealth struct {
	addr string

	// Immutable knobs, resolved from BrokerConfig at construction.
	failures int           // consecutive failures to trip open; <=0 disables the breaker
	cooldown time.Duration // open → half-open probe interval
	credit   float64       // retry tokens earned per success; <0 means unlimited retries

	mu          sync.Mutex
	state       int
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	tokens      float64
	ewma        time.Duration
	lat         [latWindow]time.Duration
	nLat        int // filled entries
	latHead     int // next write position

	// Bound instruments (nil-safe when metrics are off).
	mState          *obs.Gauge
	mTransitions    *obs.CounterVec
	mHedges         *obs.Counter
	mRetryExhausted *obs.Counter
}

func newSiteHealth(addr string, failures int, cooldown time.Duration, credit float64, m *brokerMetrics) *siteHealth {
	if failures == 0 {
		failures = defaultCircuitFailures
	}
	if cooldown <= 0 {
		cooldown = defaultCircuitCooldown
	}
	if credit == 0 {
		credit = defaultRetryBudget
	}
	h := &siteHealth{
		addr:            addr,
		failures:        failures,
		cooldown:        cooldown,
		credit:          credit,
		tokens:          retryTokenCap, // start solvent: the first failures may retry
		mState:          m.circuitState.With(addr),
		mTransitions:    m.circuitTransitions,
		mHedges:         m.hedges.With(addr),
		mRetryExhausted: m.retryExhausted.With(addr),
	}
	h.mState.Set(circuitClosed)
	return h
}

// setStateLocked moves the breaker and books the transition. Callers must
// hold h.mu.
func (h *siteHealth) setStateLocked(state int) {
	if h.state == state {
		return
	}
	h.state = state
	h.mState.Set(float64(state))
	h.mTransitions.With(h.addr, circuitStateName(state)).Inc()
}

// allow reports whether a new exchange may use this site, and whether the
// grant is a half-open probe (the caller gets exactly one in-flight probe
// per cooldown window; its outcome decides reopen-vs-close).
func (h *siteHealth) allow() (ok, probe bool) {
	if h.failures < 0 {
		return true, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case circuitClosed:
		return true, false
	case circuitOpen:
		if time.Since(h.openedAt) < h.cooldown {
			return false, false
		}
		h.setStateLocked(circuitHalfOpen)
		h.probing = true
		return true, true
	default: // half-open
		if h.probing {
			return false, false
		}
		h.probing = true
		return true, true
	}
}

// onResult books one finished site call: success closes a half-open
// breaker and earns retry credit; failure extends the streak and trips
// the breaker open at the threshold (a failed probe reopens immediately).
// A success slower than slowFactor times the latency EWMA counts toward
// the failure streak without resetting it — the breaker's latency signal.
func (h *siteHealth) onResult(ok bool, latency time.Duration, probe bool) {
	if h.failures < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if probe {
		h.probing = false
	}
	if !ok {
		h.consecFails++
		if probe || h.consecFails >= h.failures {
			h.openedAt = time.Now()
			h.setStateLocked(circuitOpen)
		}
		return
	}
	slow := h.ewma > 0 && latency > slowFactor*h.ewma
	if !slow {
		// Slow outliers stay out of the window and the EWMA: folding them
		// in would raise the baseline until crawling looked normal.
		h.lat[h.latHead] = latency
		h.latHead = (h.latHead + 1) % latWindow
		if h.nLat < latWindow {
			h.nLat++
		}
		if h.ewma == 0 {
			h.ewma = latency
		} else {
			h.ewma = h.ewma - h.ewma/8 + latency/8
		}
	}
	if h.credit >= 0 {
		h.tokens += h.credit
		if h.tokens > retryTokenCap {
			h.tokens = retryTokenCap
		}
	}
	if slow {
		// The answer arrived, but so late the site is effectively down for
		// tail-latency purposes; let the streak keep growing.
		h.consecFails++
		if h.consecFails >= h.failures {
			h.openedAt = time.Now()
			h.setStateLocked(circuitOpen)
		}
		return
	}
	h.consecFails = 0
	h.setStateLocked(circuitClosed)
}

// takeRetryToken spends one unit of retry budget, reporting false (and
// counting the exhaustion) when the bucket is empty. Unlimited-budget
// sites always grant.
func (h *siteHealth) takeRetryToken() bool {
	if h.credit < 0 {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tokens < 1 {
		h.mRetryExhausted.Inc()
		return false
	}
	h.tokens--
	return true
}

// hedgeDelay prices the adaptive hedge: the hedgeQuantile of the site's
// recent call latencies, clamped to [hedgeDelayMin, hedgeDelayMax]. With
// no history yet it returns the cap — hedging only helps once the site
// has shown what "normal" looks like. The window is sorted in a stack
// copy, so pricing a hedge does not allocate.
func (h *siteHealth) hedgeDelay() time.Duration {
	h.mu.Lock()
	n := h.nLat
	var window [latWindow]time.Duration
	copy(window[:], h.lat[:n])
	h.mu.Unlock()
	if n == 0 {
		return hedgeDelayMax
	}
	lats := window[:n]
	slices.Sort(lats)
	d := lats[int(float64(n-1)*hedgeQuantile)]
	if d < hedgeDelayMin {
		return hedgeDelayMin
	}
	if d > hedgeDelayMax {
		return hedgeDelayMax
	}
	return d
}

// snapshotState returns the breaker's current state for tests and
// diagnostics.
func (h *siteHealth) snapshotState() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}
