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
// transaction into /debug/incidents carrying its commit→push event
// timeline, and /debug/history must show a nonzero push-latency sample.
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

	// The pinned events must tell the commit→push story in order.
	seq := map[string]uint64{}
	for _, ev := range inc.Events {
		if _, dup := seq[ev.Kind]; !dup {
			seq[ev.Kind] = ev.Seq
		}
	}
	for _, kind := range []string{"txn.commit", "monitor.deliver", "push.start", "device.write", "push.barrier"} {
		if _, ok := seq[kind]; !ok {
			t.Fatalf("incident timeline missing %q: %+v", kind, inc.Events)
		}
	}
	if !(seq["txn.commit"] < seq["monitor.deliver"] &&
		seq["monitor.deliver"] < seq["push.start"] &&
		seq["push.start"] < seq["device.write"] &&
		seq["device.write"] <= seq["push.barrier"]) {
		t.Fatalf("incident timeline out of order: %v", seq)
	}
	if inc.Trace == nil || inc.Trace.TxnID != txn {
		t.Fatalf("incident trace missing: %+v", inc.Trace)
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

// TestFlightRecorderEventsAcrossPlanes checks that one transaction's
// /debug/events?txn= view stitches all planes' emissions together.
func TestFlightRecorderEventsAcrossPlanes(t *testing.T) {
	o, s := startObservedStack(t)
	txn := s.DB.LastTxnID()

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	var dump struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	// The device.write event lands after table convergence; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/debug/events?txn=" + strconv.FormatUint(txn, 10))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("/debug/events is not JSON: %v\n%s", err, body)
		}
		kinds := map[string]bool{}
		for _, ev := range dump.Events {
			kinds[ev.Kind] = true
		}
		if kinds["txn.commit"] && kinds["monitor.deliver"] && kinds["apply.start"] &&
			kinds["apply.end"] && kinds["delta.done"] && kinds["device.write"] && kinds["push.barrier"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/events?txn=%d incomplete: %+v", txn, dump.Events)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, ev := range dump.Events {
		if ev.Txn != txn {
			t.Fatalf("filtered dump leaked txn %d: %+v", ev.Txn, ev)
		}
	}
}
