package nerpa

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/snvs"
)

// startObservedStack boots the in-process snvs stack with every plane
// sharing one observer, and applies a single configuration transaction.
func startObservedStack(t *testing.T) (*obs.Observer, *deploy.Stack) {
	t.Helper()
	o := obs.NewObserver()
	s, err := deploy.Start(bench.SnvsSpec(o))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
			"name": "snvs0", "flood_unknown": true,
		}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 1); err != nil {
		t.Fatal(err)
	}
	return o, s
}

// stageNames returns a trace's stage names in timeline (start-time) order.
func stageNames(tr obs.Trace) []string {
	names := make([]string, len(tr.Stages))
	for i, st := range tr.Stages {
		names[i] = st.Name
	}
	return names
}

// TestObsTraceTimeline asserts that one OVSDB transaction produces exactly
// one trace carrying the complete commit→monitor→delta→push→switch-applied
// timeline, the device's write stage inside the push, with monotonic
// stage timestamps.
func TestObsTraceTimeline(t *testing.T) {
	o, s := startObservedStack(t)

	txn := s.DB.LastTxnID()
	if txn == 0 {
		t.Fatal("no transaction committed")
	}

	// The push stage is recorded just after the device write completes, so
	// it can trail the WaitEntries convergence by a beat.
	var tr obs.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ok bool
		tr, ok = o.Tr().Get(txn)
		if ok && len(tr.Stages) >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace for txn %d never completed: %+v", txn, tr)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := o.Tr().Recent(0); len(got) != 1 {
		t.Fatalf("tracer holds %d traces, want exactly 1: %+v", len(got), got)
	}
	if tr.Source != "ovsdb" {
		t.Fatalf("trace source = %q, want ovsdb", tr.Source)
	}

	want := map[string]bool{
		"commit": true, "monitor": true, "delta": true, "push": true,
		"write": true, "switch-applied": true,
	}
	byName := map[string]obs.Stage{}
	for _, st := range tr.Stages {
		byName[st.Name] = st
	}
	for name := range want {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing stage %q: have %v", name, stageNames(tr))
		}
	}

	// Per-stage sanity: each stage spans a non-negative interval.
	for _, st := range tr.Stages {
		if st.End.Before(st.Start) {
			t.Fatalf("stage %s ends before it starts: %+v", st.Name, st)
		}
	}
	// Pipeline order: commit precedes monitor delivery precedes delta
	// evaluation precedes the push, within which the device applies.
	order := []string{"commit", "monitor", "delta", "push", "switch-applied"}
	for i := 1; i < len(order); i++ {
		prev, cur := byName[order[i-1]], byName[order[i]]
		if cur.Start.Before(prev.Start) {
			t.Fatalf("stage %s starts before %s: %v < %v",
				cur.Name, prev.Name, cur.Start, prev.Start)
		}
		if cur.End.Before(prev.Start) {
			t.Fatalf("stage %s ends before %s starts", cur.Name, prev.Name)
		}
	}
	if n, _ := byName["push"].Field("updates"); n < 1 {
		t.Fatalf("push stage pushed no updates: %+v", byName["push"])
	}
}

// TestObsEndpointsServeAllPlanes drives the stack, then checks the HTTP
// surface: /metrics exposes series from every plane and /debug/traces
// returns the completed timeline.
func TestObsEndpointsServeAllPlanes(t *testing.T) {
	o, s := startObservedStack(t)
	txn := s.DB.LastTxnID()

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, series := range []string{
		// management plane
		"ovsdb_txn_total 1",
		"ovsdb_monitor_updates_total",
		// control plane
		"core_txn_total{source=\"ovsdb\"}",
		"dl_eval_seconds_count",
		"dl_delta_size_sum",
		// data plane (client and device sides)
		"p4rt_writes_total",
		"switchsim_writes_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, metrics)
		}
	}

	// The push trails table convergence; poll until the dump is complete.
	var dump struct {
		Evicted uint64      `json:"evicted"`
		Traces  []obs.Trace `json:"traces"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get("/debug/traces")), &dump); err != nil {
			t.Fatalf("/debug/traces is not JSON: %v", err)
		}
		if len(dump.Traces) == 1 && len(dump.Traces[0].Stages) >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/traces never showed the full timeline: %+v", dump)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr := dump.Traces[0]
	if tr.TxnID != txn {
		t.Fatalf("trace txn = %d, want %d", tr.TxnID, txn)
	}
	// WriteJSON sorts stages by start time; the timeline must read in
	// pipeline order.
	names := stageNames(tr)
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	last := -1
	for _, n := range []string{"commit", "monitor", "delta", "push", "switch-applied"} {
		i, ok := idx[n]
		if !ok {
			t.Fatalf("timeline missing %q: %v", n, names)
		}
		if i < last {
			t.Fatalf("timeline out of order: %v", names)
		}
		last = i
	}

	// With switch-applied in the trace, the end-to-end convergence
	// histogram must have observed the commit→apply latency.
	if metrics := get("/metrics"); !strings.Contains(metrics, "obs_convergence_seconds_count 1") {
		t.Fatalf("/metrics missing obs_convergence_seconds_count 1 after full timeline:\n%s", metrics)
	}
}

// profilerRules extends the snvs program with a deliberately expensive
// rule: every ordered pair of ports sharing a VLAN, quadratic in ports
// per VLAN. The relation is bound to no data-plane table, so it stays
// internal — pure engine load for the profiler to attribute.
const profilerRules = snvs.Rules + `
relation PortPair(a: bit<16>, b: bit<16>)
PortPair(a, b) :- InVlan(a, v), InVlan(b, v).
`

// TestProfilerRanksExpensiveRule is the workload-profiler e2e: a port
// churn workload whose cost is dominated by the quadratic PortPair rule
// must surface that rule first on /debug/rules, expose its dl_rule_*
// series on /metrics, and account its tuples on /debug/memory.
func TestProfilerRanksExpensiveRule(t *testing.T) {
	o := obs.NewObserver()
	spec := bench.SnvsSpec(o)
	spec.Rules = profilerRules
	s, err := deploy.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	})); err != nil {
		t.Fatal(err)
	}
	const ports = 48
	for i := 0; i < ports; i++ {
		if err := s.Transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p" + strconv.Itoa(i), "port_num": int64(i + 1),
			"vlan_mode": "access", "tag": int64(10),
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitEntries("snvs0", "in_vlan", ports); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var rep obs.RuleReport
	if err := json.Unmarshal([]byte(get("/debug/rules")), &rep); err != nil {
		t.Fatalf("/debug/rules is not JSON: %v", err)
	}
	if rep.Txns == 0 || len(rep.Rules) == 0 {
		t.Fatalf("profiler observed nothing: %+v", rep)
	}
	top := rep.Rules[0]
	if top.ID != "PortPair#0" {
		t.Fatalf("hottest rule = %s (%.0fns EWMA), want PortPair#0: %+v",
			top.ID, top.EwmaNs, rep.Rules)
	}
	// Quadratic growth: 48 single-port inserts into one VLAN derive
	// sum(2k-1) = 48² pairs.
	if top.Derivations != ports*ports {
		t.Fatalf("PortPair derivations = %d, want %d", top.Derivations, ports*ports)
	}
	if top.Share <= 0 || top.EwmaNs <= 0 || top.Label == "" {
		t.Fatalf("top row incomplete: %+v", top)
	}

	metrics := get("/metrics")
	for _, series := range []string{
		`dl_rule_eval_ns_total{rule="PortPair#0"}`,
		`dl_rule_derivations_total{rule="PortPair#0"} 2304`,
		`dl_rule_cost_ewma_seconds{rule="PortPair#0"}`,
		"dl_mem_bytes",
		"dl_mem_tuples",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}

	// Memory accounting: the snapshot republishes on every transaction,
	// so after the last insert PortPair already shows the quadratic
	// tuple set.
	var mem struct {
		At time.Time `json:"at"`
		obs.MemSnapshot
	}
	if err := json.Unmarshal([]byte(get("/debug/memory")), &mem); err != nil {
		t.Fatalf("/debug/memory is not JSON: %v", err)
	}
	if mem.At.IsZero() || mem.Bytes == 0 {
		t.Fatalf("memory snapshot never published: %+v", mem)
	}
	var pp *obs.RelMem
	for i := range mem.Relations {
		if mem.Relations[i].Name == "PortPair" {
			pp = &mem.Relations[i]
		}
	}
	if pp == nil || pp.Tuples != ports*ports || pp.Bytes == 0 {
		t.Fatalf("PortPair memory accounting wrong: %+v", pp)
	}
}
