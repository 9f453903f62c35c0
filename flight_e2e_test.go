package nerpa

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4rt"
)

// TestFlightRecorderSlowPushIncident is the flight recorder's acceptance
// test: with a switchsim fault hook making device writes artificially
// slow and a tight push budget, inserting a Port row must pin the
// transaction into /debug/incidents carrying its commit→push trace,
// whose write stage names the slow device, and /debug/history must show
// a nonzero push-latency sample.
func TestFlightRecorderSlowPushIncident(t *testing.T) {
	o := obs.NewObserver()
	s, err := deploy.Start(bench.SnvsSpec(o))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	o.StartHistory(10 * time.Millisecond)
	t.Cleanup(o.StopHistory)

	// Converge the baseline configuration at full speed first, so only
	// the probe transaction below trips the budget.
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

	// Slow device: every write now stalls 25ms before applying (the hook
	// returns nil, so the write itself still succeeds).
	const stall = 25 * time.Millisecond
	s.Switch("snvs0").SetWriteFault(func([]p4rt.Update) error {
		time.Sleep(stall)
		return nil
	})
	o.SetSlowBudget(5 * time.Millisecond)

	if err := s.Transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
	})); err != nil {
		t.Fatal(err)
	}
	txn := s.DB.LastTxnID()
	if err := s.WaitEntries("snvs0", "in_vlan", 2); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return string(body)
	}

	// The incident is pinned after the push completes; poll briefly. The
	// budget holds every stage, so a slow monitor delivery or delta may
	// pin an incident of its own first.
	var dump struct {
		Incidents []obs.Incident `json:"incidents"`
	}
	var inc *obs.Incident
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get("/debug/incidents")), &dump); err != nil {
			t.Fatalf("/debug/incidents is not JSON: %v", err)
		}
		for i := range dump.Incidents {
			if dump.Incidents[i].Txn == txn && dump.Incidents[i].Stage == "push" {
				inc = &dump.Incidents[i]
			}
		}
		if inc != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no push incident for txn %d: %+v", txn, dump.Incidents)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if inc.Source != "ovsdb" {
		t.Fatalf("incident source = %q, want ovsdb", inc.Source)
	}
	if inc.Actual < stall || inc.Budget != 5*time.Millisecond {
		t.Fatalf("incident actual=%v budget=%v, want >= %v over 5ms", inc.Actual, inc.Budget, stall)
	}

	// The pinned trace must tell the commit→push story in order, and name
	// the slow device by its write stage.
	if inc.Trace == nil || inc.Trace.TxnID != txn {
		t.Fatalf("incident trace missing: %+v", inc.Trace)
	}
	byName := map[string]obs.Stage{}
	for _, st := range inc.Trace.Stages {
		byName[st.Name] = st
	}
	order := []string{"commit", "monitor", "delta", "push", "write"}
	for i, name := range order {
		st, ok := byName[name]
		if !ok {
			t.Fatalf("incident trace missing %q: %+v", name, inc.Trace.Stages)
		}
		if i > 0 && st.Start.Before(byName[order[i-1]].Start) {
			t.Fatalf("incident trace out of order: %s starts before %s: %+v", name, order[i-1], inc.Trace.Stages)
		}
	}
	w := byName["write"]
	if w.Device != "snvs0" || w.End.Sub(w.Start) < stall || w.End.After(byName["push"].End) {
		t.Fatalf("write stage %+v: want device snvs0, at least %v, inside push %+v", w, stall, byName["push"])
	}

	// /debug/incidents?txn= narrows to the same capture.
	if err := json.Unmarshal([]byte(get("/debug/incidents?txn="+strconv.FormatUint(txn, 10))), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Incidents) == 0 || dump.Incidents[0].Txn != txn {
		t.Fatalf("?txn=%d returned %+v", txn, dump.Incidents)
	}

	// The history sampler must have caught the slow push: at least one
	// nonzero core_push_seconds average.
	var hist struct {
		Series []struct {
			Name    string       `json:"name"`
			Samples []obs.Sample `json:"samples"`
		} `json:"series"`
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get("/debug/history?series="+obs.SeriesPushLatency)), &hist); err != nil {
			t.Fatalf("/debug/history is not JSON: %v", err)
		}
		nonzero := false
		for _, ser := range hist.Series {
			for _, sm := range ser.Samples {
				if sm.Value > 0 {
					nonzero = true
				}
			}
		}
		if nonzero {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/history never showed a nonzero push-latency sample: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlightRecorderCommitIsTraceOnly: on an observed stack a plain Port
// insert is recorded once, as the stages of its trace. /debug/events?txn=
// holds nothing for it, and /debug/traces?txn= holds commit, monitor,
// delta, push, the switch's write and switch-applied, with commit first
// and the write inside the push.
func TestFlightRecorderCommitIsTraceOnly(t *testing.T) {
	o, s := startObservedStack(t)
	if err := s.Transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
	})); err != nil {
		t.Fatal(err)
	}
	txn := s.DB.LastTxnID()
	if err := s.WaitEntries("snvs0", "in_vlan", 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s is not JSON: %v\n%s", path, err, body)
		}
	}
	// The wire form, decoded as any client of /debug/traces does.
	type stage struct {
		Name   string           `json:"name"`
		Start  time.Time        `json:"start"`
		End    time.Time        `json:"end"`
		Device string           `json:"device"`
		Attrs  map[string]int64 `json:"attrs"`
	}
	want := []string{"commit", "monitor", "delta", "push", "write", "switch-applied"}
	q := "?txn=" + strconv.FormatUint(txn, 10)
	var tr struct {
		TxnID  uint64  `json:"txn_id"`
		Stages []stage `json:"stages"`
	}
	byName := map[string]stage{}
	// The push stage is recorded after the device write returns, so it
	// can trail the switch's convergence by a beat.
	for deadline := time.Now().Add(5 * time.Second); ; {
		get("/debug/traces"+q, &tr)
		clear(byName)
		for _, st := range tr.Stages {
			byName[st.Name] = st
		}
		if len(byName) == len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace of txn %d has stages %+v, want %v", txn, tr.Stages, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, name := range want {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace of txn %d misses %q: %+v", txn, name, tr.Stages)
		}
	}
	if len(tr.Stages) != len(want) {
		t.Fatalf("trace of txn %d has %d stages, want one of each of %v: %+v", txn, len(tr.Stages), want, tr.Stages)
	}
	if tr.Stages[0].Name != "commit" {
		t.Fatalf("first stage is %q, want commit: %+v", tr.Stages[0].Name, tr.Stages)
	}
	w, push := byName["write"], byName["push"]
	if w.Device != "snvs0" || w.Attrs["updates"] < 1 || w.Attrs["failed"] != 0 {
		t.Fatalf("write stage = %+v, want device snvs0, updates >= 1, not failed", w)
	}
	if w.Start.Before(push.Start) || w.End.After(push.End) {
		t.Fatalf("write stage %v..%v lies outside push %v..%v", w.Start, w.End, push.Start, push.End)
	}

	var dump struct {
		Events []obs.Event `json:"events"`
	}
	get("/debug/events"+q, &dump)
	if len(dump.Events) != 0 {
		t.Fatalf("/debug/events%s holds %d events for a plain commit, want none: %+v", q, len(dump.Events), dump.Events)
	}
}
