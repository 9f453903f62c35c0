// Package fleet aggregates the observability surfaces of a running
// Nerpa deployment. Each process (ovsdb-server, nerpa-controller,
// snvs-switch) exposes its own /metrics, /debug/traces and /readyz;
// this package polls those endpoints, attributes what it reads via the
// X-Obs-* identity headers, corrects for wall-clock skew between hosts,
// and stitches the per-process trace fragments back into end-to-end
// transaction timelines — the cross-process form of the in-process
// commit→switch-applied convergence measurement.
//
// The Aggregator is the library core; cmd/nerpa-top is the CLI around
// it, serving /fleet, /fleet/traces and /fleet/metrics.
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Health classifies one member on the last completed poll.
const (
	HealthUp       = "up"        // /readyz answered 200
	HealthNotReady = "not-ready" // 503 before initial sync
	HealthDegraded = "degraded"  // 503: a connection is down, self-healing
	HealthStalled  = "stalled"   // 503: the stall watchdog fired
	HealthDraining = "draining"  // 503: shutdown drain in progress
	HealthStale    = "stale"     // scrape failed or no fresh scrape within StaleAfter
)

// Config parameterizes an Aggregator.
type Config struct {
	// Targets lists the obs endpoints to poll, each "host:port" or
	// "name=host:port" (the name labels the member until its identity
	// headers supply an instance ID).
	Targets []string
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// StaleAfter marks a member stale when its last successful scrape is
	// older than this (default 3×Interval).
	StaleAfter time.Duration
}

const (
	// traceLimit caps the traces fetched per member per poll.
	traceLimit = 128
	// traceCapacity bounds the stitched-trace store.
	traceCapacity = 512
	// scrapeTimeout bounds each HTTP scrape.
	scrapeTimeout = 2 * time.Second
	// ruleLimit caps the fleet-wide hot-rule table merged from the
	// members' /debug/rules reports.
	ruleLimit = 16
)

func (c *Config) withDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
}

// member is the aggregator's view of one polled process.
type member struct {
	name string // configured label (may be overridden by identity)
	addr string

	mu       sync.Mutex
	identity obs.Identity
	skew     time.Duration // member wall clock minus aggregator wall clock
	health   string
	detail   string // stall/degraded reason or extra ready lines
	lastOK   time.Time
	lastErr  string
	traces   []obs.Trace // last successful /debug/traces fetch
	// rules is the member's last /debug/rules report; hasRules marks
	// that the member serves the profiler surface at all (members
	// running without profiling simply contribute nothing to the
	// fleet-wide hot-rule table).
	rules    obs.RuleReport
	hasRules bool
}

// MemberStatus is the JSON rendering of one member on /fleet.
type MemberStatus struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Plane    string `json:"plane,omitempty"`
	Instance string `json:"instance,omitempty"`
	Health   string `json:"health"`
	Detail   string `json:"detail,omitempty"`
	// SkewNs is the member's estimated wall-clock offset from the
	// aggregator (member minus local), NTP-style from the request
	// midpoint.
	SkewNs int64 `json:"skew_ns"`
	// StartUnixNano is the member process's start time on its own clock.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
	// ScrapeAgeSeconds is how old the last successful scrape is.
	ScrapeAgeSeconds float64 `json:"scrape_age_seconds"`
	LastError        string  `json:"last_error,omitempty"`
}

// Aggregator polls a set of obs endpoints and maintains the fused
// fleet view: member health, clock-skew estimates, stitched
// cross-process transaction timelines, and fleet-level convergence
// percentiles.
type Aggregator struct {
	cfg     Config
	members []*member
	client  *http.Client
	// ruleLimit caps the hot-rule table: the ruleLimit constant, which
	// tests lower.
	ruleLimit int

	mu       sync.Mutex
	stitched map[uint64]*StitchedTrace
	order    []uint64 // stitched insertion order for FIFO eviction
	convSeen map[uint64]bool
	convObs  []float64 // bounded convergence samples (seconds)
	convCnt  uint64
	convSum  float64
	polls    uint64

	stop chan struct{}
	done chan struct{}

	reg        *obs.Registry
	mScrapes   *obs.Counter
	mScrapeErr map[string]*obs.Counter
}

// New creates an aggregator from cfg (it does not start polling; call
// Start, or PollOnce for one-shot use).
func New(cfg Config) (*Aggregator, error) {
	cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("fleet: no targets")
	}
	a := &Aggregator{
		cfg:        cfg,
		client:     &http.Client{Timeout: scrapeTimeout},
		ruleLimit:  ruleLimit,
		stitched:   make(map[uint64]*StitchedTrace),
		convSeen:   make(map[uint64]bool),
		reg:        obs.NewRegistry(),
		mScrapeErr: make(map[string]*obs.Counter),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, t := range cfg.Targets {
		name, addr := t, t
		if i := strings.IndexByte(t, '='); i >= 0 {
			name, addr = t[:i], t[i+1:]
		}
		if name == "" || addr == "" {
			return nil, fmt.Errorf("fleet: bad target %q (want addr or name=addr)", t)
		}
		a.members = append(a.members, &member{name: name, addr: addr, health: HealthStale, detail: "never scraped"})
	}
	a.mScrapes = a.reg.Counter("fleet_scrapes_total", "Member scrape attempts (successful or not).")
	for _, m := range a.members {
		a.mScrapeErr[m.name] = a.reg.Counter("fleet_scrape_errors_total",
			"Failed member scrapes.", obs.L("member", m.name))
	}
	return a, nil
}

// Start launches the background poll loop.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
		a.PollOnce()
		for {
			select {
			case <-a.stop:
				return
			case <-ticker.C:
				a.PollOnce()
			}
		}
	}()
}

// Close stops the poll loop (idempotent per aggregator; only call
// after Start).
func (a *Aggregator) Close() {
	close(a.stop)
	<-a.done
}

// PollOnce scrapes every member concurrently and refreshes the fused
// view. Safe to call concurrently with the HTTP handlers.
func (a *Aggregator) PollOnce() {
	var wg sync.WaitGroup
	for _, m := range a.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			a.scrape(m)
		}(m)
	}
	wg.Wait()
	a.restitch()
	a.mu.Lock()
	a.polls++
	a.mu.Unlock()
}

// Polls reports how many poll rounds have completed.
func (a *Aggregator) Polls() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.polls
}

// scrape refreshes one member: /readyz for health, /debug/traces for
// trace fragments, both responses' X-Obs-* headers for identity and
// clock skew.
func (a *Aggregator) scrape(m *member) {
	a.mScrapes.Inc()
	base := m.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	health, detail, hdr, err := a.scrapeReadyz(base)
	if err != nil {
		a.mScrapeErr[m.name].Inc()
		m.mu.Lock()
		m.health = HealthStale
		m.lastErr = err.Error()
		m.mu.Unlock()
		return
	}
	traces, thdr, skew, err := a.scrapeTraces(base)
	if err != nil {
		a.mScrapeErr[m.name].Inc()
		m.mu.Lock()
		m.health = HealthStale
		m.lastErr = err.Error()
		m.mu.Unlock()
		return
	}
	id := identityFrom(thdr)
	if id.Plane == "" {
		id = identityFrom(hdr)
	}
	// Hot-rule reports are best-effort: a member without the profiler
	// (older build, profiling off) stays healthy and merely contributes
	// nothing to the fleet-wide table.
	rules, hasRules := a.scrapeRules(base)
	m.mu.Lock()
	m.identity = id
	m.skew = skew
	m.health = health
	m.detail = detail
	m.lastOK = time.Now()
	m.lastErr = ""
	m.traces = traces
	m.rules, m.hasRules = rules, hasRules
	m.mu.Unlock()
}

// scrapeRules fetches the member's /debug/rules hot-rule report.
// Any failure (endpoint absent, decode error) reports ok=false.
func (a *Aggregator) scrapeRules(base string) (obs.RuleReport, bool) {
	resp, err := a.client.Get(base + "/debug/rules?limit=" + strconv.Itoa(a.ruleLimit))
	if err != nil {
		return obs.RuleReport{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.RuleReport{}, false
	}
	var rep obs.RuleReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return obs.RuleReport{}, false
	}
	return rep, len(rep.Rules) > 0 || rep.Txns > 0
}

// scrapeReadyz classifies the member's readiness answer.
func (a *Aggregator) scrapeReadyz(base string) (health, detail string, hdr http.Header, err error) {
	resp, err := a.client.Get(base + "/readyz")
	if err != nil {
		return "", "", nil, err
	}
	defer resp.Body.Close()
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	text := strings.TrimSpace(string(body[:n]))
	switch {
	case resp.StatusCode == http.StatusOK:
		health = HealthUp
		// Extra ready-detail lines after "ready" surface as detail.
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			detail = strings.ReplaceAll(text[i+1:], "\n", "; ")
		}
	case strings.HasPrefix(text, "stalled"):
		health, detail = HealthStalled, text
	case strings.HasPrefix(text, "degraded"):
		health, detail = HealthDegraded, text
	case strings.HasPrefix(text, "draining"):
		health, detail = HealthDraining, text
	default:
		health, detail = HealthNotReady, text
	}
	return health, detail, resp.Header, nil
}

// scrapeTraces fetches the member's trace ring and estimates its
// wall-clock skew from the response's X-Obs-Now-Unix-Nano header,
// NTP-style: the member's "now" is compared against the midpoint of
// the request interval on the local clock.
func (a *Aggregator) scrapeTraces(base string) ([]obs.Trace, http.Header, time.Duration, error) {
	reqStart := time.Now()
	resp, err := a.client.Get(base + "/debug/traces?limit=" + strconv.Itoa(traceLimit))
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	reqEnd := time.Now()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, 0, fmt.Errorf("GET /debug/traces: %s", resp.Status)
	}
	var dump struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return nil, nil, 0, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	var skew time.Duration
	if s := resp.Header.Get("X-Obs-Now-Unix-Nano"); s != "" {
		if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
			mid := reqStart.Add(reqEnd.Sub(reqStart) / 2)
			skew = time.Duration(ns - mid.UnixNano())
		}
	}
	return dump.Traces, resp.Header, skew, nil
}

// identityFrom reads the X-Obs-* identity headers.
func identityFrom(h http.Header) obs.Identity {
	if h == nil {
		return obs.Identity{}
	}
	id := obs.Identity{Plane: h.Get("X-Obs-Plane"), Instance: h.Get("X-Obs-Instance")}
	if s := h.Get("X-Obs-Start-Unix-Nano"); s != "" {
		if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
			id.Start = time.Unix(0, ns)
		}
	}
	return id
}

// statuses snapshots every member for rendering. Staleness is derived
// at read time so a hung member flips without waiting for its scrape
// to fail.
func (a *Aggregator) statuses() []MemberStatus {
	now := time.Now()
	out := make([]MemberStatus, 0, len(a.members))
	for _, m := range a.members {
		m.mu.Lock()
		st := MemberStatus{
			Name:     m.name,
			Addr:     m.addr,
			Plane:    m.identity.Plane,
			Instance: m.identity.Instance,
			Health:   m.health,
			Detail:   m.detail,
			SkewNs:   int64(m.skew),
		}
		if m.identity.Instance != "" {
			st.Name = m.identity.Instance
		}
		if !m.identity.Start.IsZero() {
			st.StartUnixNano = m.identity.Start.UnixNano()
		}
		if m.lastOK.IsZero() {
			st.ScrapeAgeSeconds = -1
		} else {
			st.ScrapeAgeSeconds = now.Sub(m.lastOK).Seconds()
			if st.Health != HealthStale && now.Sub(m.lastOK) > a.cfg.StaleAfter {
				st.Health = HealthStale
				st.Detail = "no successful scrape in " + a.cfg.StaleAfter.String()
			}
		}
		st.LastError = m.lastErr
		m.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ConvergenceStats summarizes the fleet's commit→switch-applied
// latencies over the retained sample window.
type ConvergenceStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// convergence computes the stats under a.mu.
func (a *Aggregator) convergenceLocked() ConvergenceStats {
	st := ConvergenceStats{Count: a.convCnt, Sum: a.convSum}
	if len(a.convObs) > 0 {
		sorted := append([]float64(nil), a.convObs...)
		sort.Float64s(sorted)
		st.P50 = quantile(sorted, 0.50)
		st.P90 = quantile(sorted, 0.90)
		st.P99 = quantile(sorted, 0.99)
	}
	return st
}
