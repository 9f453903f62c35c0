package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Status is the /fleet JSON document: the member table plus the
// fleet-level trace and convergence summary.
type Status struct {
	Members []MemberStatus `json:"members"`
	Traces  int            `json:"traces"`
	// Incomplete counts retained stitched traces with missing stages.
	Incomplete  int              `json:"incomplete"`
	Convergence ConvergenceStats `json:"convergence"`
	// HotRules is the fleet-wide hot-rule table merged from the
	// members' /debug/rules reports.
	HotRules FleetRules `json:"hot_rules"`
	Polls    uint64     `json:"polls"`
}

// Status snapshots the fused fleet view.
func (a *Aggregator) Status() Status {
	st := Status{Members: a.statuses(), HotRules: a.hotRules()}
	a.mu.Lock()
	st.Traces = len(a.stitched)
	for _, tr := range a.stitched {
		if !tr.Complete {
			st.Incomplete++
		}
	}
	st.Convergence = a.convergenceLocked()
	st.Polls = a.polls
	a.mu.Unlock()
	return st
}

// Handler returns the aggregator's HTTP surface:
//
//	/fleet          fleet summary as JSON (?format=text for the
//	                one-shot table)
//	/fleet/traces   stitched cross-process timelines (?txn= one
//	                transaction, 404 if unknown; ?limit= caps the dump)
//	/fleet/metrics  fleet-level Prometheus exposition
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", a.handleStatus)
	mux.HandleFunc("/fleet/traces", a.handleTraces)
	mux.HandleFunc("/fleet/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (a *Aggregator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := a.Status()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, st.Text())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

func (a *Aggregator) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if s := q.Get("txn"); s != "" {
		id, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad txn id: "+s, http.StatusBadRequest)
			return
		}
		tr, ok := a.Trace(id)
		if !ok {
			http.Error(w, "unknown txn "+s, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tr)
		return
	}
	n := 0
	if s := q.Get("limit"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			n = v
		}
	}
	traces := a.Traces(n)
	if traces == nil {
		traces = []StitchedTrace{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Traces []StitchedTrace `json:"traces"`
	}{traces})
}

// handleMetrics refreshes the derived gauges from the current fused
// view, then serves the registry in Prometheus text form.
func (a *Aggregator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	a.refreshMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.reg.WritePrometheus(w)
}

// refreshMetrics projects the fused view onto the fleet_* gauges.
func (a *Aggregator) refreshMetrics() {
	st := a.Status()
	a.reg.Gauge("fleet_members", "Configured fleet members.").Set(float64(len(st.Members)))
	up := 0
	for _, m := range st.Members {
		lbl := obs.L("member", m.Name)
		v := 0.0
		if m.Health == HealthUp {
			v = 1
			up++
		}
		a.reg.Gauge("fleet_member_up", "1 while the member's last scrape answered ready, else 0.", lbl).Set(v)
		a.reg.Gauge("fleet_member_scrape_age_seconds",
			"Seconds since the member's last successful scrape (-1 = never).", lbl).Set(m.ScrapeAgeSeconds)
		a.reg.Gauge("fleet_member_skew_seconds",
			"Estimated member wall-clock offset from the aggregator (member minus local).", lbl).
			Set(float64(m.SkewNs) / 1e9)
	}
	a.reg.Gauge("fleet_members_up", "Members whose last scrape answered ready.").Set(float64(up))
	a.reg.Gauge("fleet_traces_stitched", "Stitched cross-process traces currently retained.").Set(float64(st.Traces))
	a.reg.Gauge("fleet_traces_incomplete",
		"Retained stitched traces with missing pipeline stages.").Set(float64(st.Incomplete))
	c := st.Convergence
	a.reg.Gauge("fleet_convergence_count",
		"Transactions whose fleet-wide commit-to-switch-applied latency has been measured.").Set(float64(c.Count))
	a.reg.Gauge("fleet_convergence_sum_seconds",
		"Sum of measured fleet-wide convergence latencies.").Set(c.Sum)
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", c.P50}, {"0.9", c.P90}, {"0.99", c.P99}} {
		a.reg.Gauge("fleet_convergence_seconds",
			"Fleet-wide commit-to-switch-applied latency percentiles over the sample window.",
			obs.L("quantile", q.q)).Set(q.v)
	}
}

// Text renders the status as the aligned nerpa-top one-shot table.
func (s Status) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d member(s), %d stitched trace(s) (%d incomplete), %d poll(s)\n",
		len(s.Members), s.Traces, s.Incomplete, s.Polls)
	fmt.Fprintf(&b, "%-16s %-12s %-22s %-10s %12s %10s  %s\n",
		"MEMBER", "PLANE", "ADDR", "HEALTH", "SKEW", "SCRAPED", "DETAIL")
	for _, m := range s.Members {
		scraped := "never"
		if m.ScrapeAgeSeconds >= 0 {
			scraped = fmt.Sprintf("%.1fs ago", m.ScrapeAgeSeconds)
		}
		detail := m.Detail
		if detail == "" && m.LastError != "" {
			detail = m.LastError
		}
		fmt.Fprintf(&b, "%-16s %-12s %-22s %-10s %12s %10s  %s\n",
			m.Name, m.Plane, m.Addr, m.Health,
			time.Duration(m.SkewNs).Round(time.Microsecond), scraped, detail)
	}
	c := s.Convergence
	if c.Count > 0 {
		fmt.Fprintf(&b, "convergence (commit→switch-applied): n=%d p50=%s p90=%s p99=%s\n",
			c.Count, secs(c.P50), secs(c.P90), secs(c.P99))
	} else {
		b.WriteString("convergence (commit→switch-applied): no complete timelines yet\n")
	}
	rulesText(&b, s.HotRules)
	return b.String()
}

// TraceText renders one stitched timeline as aligned plain text, each
// stage offset from the timeline's start.
func TraceText(tr StitchedTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "txn %d: %d stage(s) from %s", tr.TxnID, len(tr.Stages), strings.Join(tr.Members, ", "))
	if tr.Complete {
		fmt.Fprintf(&b, " — complete, convergence %s", time.Duration(tr.ConvergenceNs).Round(time.Microsecond))
	} else {
		fmt.Fprintf(&b, " — INCOMPLETE, missing: %s", strings.Join(tr.Missing, ", "))
	}
	b.WriteByte('\n')
	if len(tr.Stages) == 0 {
		return b.String()
	}
	t0 := tr.Stages[0].Start
	for _, sg := range tr.Stages {
		attrs := ""
		if len(sg.Attrs) > 0 {
			keys := make([]string, 0, len(sg.Attrs))
			for k := range sg.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, sg.Attrs[k])
			}
			attrs = " " + strings.Join(parts, " ")
		}
		if sg.Device != "" {
			attrs = " device=" + sg.Device + attrs
		}
		fmt.Fprintf(&b, "  %+12s  %-16s %-12s %v%s\n",
			sg.Start.Sub(t0).Round(time.Microsecond), sg.Name, sg.Member,
			sg.End.Sub(sg.Start).Round(time.Microsecond), attrs)
	}
	return b.String()
}

func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// Serve serves the fleet endpoints on addr until the listener fails.
func (a *Aggregator) Serve(addr string) error {
	srv := &http.Server{Addr: addr, Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	return srv.ListenAndServe()
}
