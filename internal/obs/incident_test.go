package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBudgetExceeded(t *testing.T) {
	o := NewObserver()
	if o.BudgetExceeded(time.Hour) {
		t.Fatal("zero budget must disable capture")
	}
	o.SetSlowBudget(10 * time.Millisecond)
	if !o.BudgetExceeded(20 * time.Millisecond) {
		t.Fatal("20ms over a 10ms budget not exceeded")
	}
	if o.BudgetExceeded(5 * time.Millisecond) {
		t.Fatal("5ms under a 10ms budget exceeded")
	}
	var nilo *Observer
	if nilo.BudgetExceeded(time.Hour) {
		t.Fatal("nil observer exceeded")
	}
	nilo.PinIncident("push", 1, "ovsdb", time.Second, nil) // must not panic
	nilo.SetSlowBudget(time.Second)
}

func TestPinIncidentCapturesEventsAndTrace(t *testing.T) {
	o := NewObserver()
	o.SetSlowBudget(time.Millisecond)
	base := time.Unix(3000, 0)
	o.Rec().Append(Ev("ovsdb", "txn.commit").WithTxn(5).At(base))
	o.Rec().Append(Ev("core", "push.start").WithTxn(5).At(base.Add(time.Second)))
	o.Rec().Append(Ev("ovsdb", "txn.commit").WithTxn(6)) // other txn, not captured
	o.Tr().Record(5, "ovsdb", Stage{Name: "commit", Start: base, End: base.Add(time.Millisecond)})

	o.PinIncident("push", 5, "ovsdb", 7*time.Millisecond, map[string]string{"why": "slow device"})

	incs, evicted := o.Inc().Snapshot(0)
	if evicted != 0 || len(incs) != 1 {
		t.Fatalf("store has %d incidents (evicted %d), want 1, 0", len(incs), evicted)
	}
	inc := incs[0]
	if inc.Txn != 5 || inc.Stage != "push" || inc.Source != "ovsdb" {
		t.Fatalf("incident identity wrong: %+v", inc)
	}
	if inc.Budget != time.Millisecond || inc.Actual != 7*time.Millisecond {
		t.Fatalf("budget/actual = %v/%v", inc.Budget, inc.Actual)
	}
	if len(inc.Events) != 2 {
		t.Fatalf("captured %d events, want the txn's 2", len(inc.Events))
	}
	if inc.Events[0].Kind != "txn.commit" || inc.Events[1].Kind != "push.start" {
		t.Fatalf("timeline out of order: %s, %s", inc.Events[0].Kind, inc.Events[1].Kind)
	}
	if inc.Trace == nil || inc.Trace.TxnID != 5 {
		t.Fatal("trace not pinned")
	}
	if inc.Detail == nil {
		t.Fatal("detail not pinned")
	}
	if v := o.Reg().Counter("obs_incidents_total", "").Value(); v != 1 {
		t.Fatalf("obs_incidents_total = %d, want 1", v)
	}
}

func TestPinIncidentTxnZeroPinsNoEvents(t *testing.T) {
	o := NewObserver()
	o.SetSlowBudget(time.Millisecond)
	o.Rec().Append(Ev("core", "push.start").WithTxn(1))
	o.Rec().Append(Ev("core", "push.start")) // txn-less
	o.PinIncident("push", 0, "initial", time.Second, nil)
	incs, _ := o.Inc().Snapshot(0)
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1", len(incs))
	}
	// EventsFor(0) matches everything; a txn-less incident must not pin
	// the whole ring.
	if len(incs[0].Events) != 0 {
		t.Fatalf("txn-0 incident pinned %d events, want 0", len(incs[0].Events))
	}
}

func TestIncidentStoreFIFOEviction(t *testing.T) {
	s := newIncidentStore()
	s.cap = 3
	for i := 1; i <= 5; i++ {
		s.Add(Incident{Txn: uint64(i)})
	}
	incs, evicted := s.Snapshot(0)
	if evicted != 2 || len(incs) != 3 {
		t.Fatalf("evicted=%d len=%d, want 2, 3", evicted, len(incs))
	}
	for i, inc := range incs {
		if want := uint64(3 + i); inc.Txn != want || inc.Seq != want {
			t.Fatalf("incident %d: txn=%d seq=%d, want %d", i, inc.Txn, inc.Seq, want)
		}
	}
	if got, _ := s.Snapshot(4); len(got) != 1 || got[0].Txn != 4 {
		t.Fatalf("txn filter returned %d incidents", len(got))
	}
}

func TestDebugIncidentsEndpoint(t *testing.T) {
	o := NewObserver()
	o.SetSlowBudget(time.Millisecond)
	o.PinIncident("delta", 3, "ovsdb", 4*time.Millisecond, nil)
	o.PinIncident("push", 4, "ovsdb", 9*time.Millisecond, nil)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	var dump struct {
		Evicted   uint64     `json:"evicted"`
		Incidents []Incident `json:"incidents"`
	}
	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/incidents")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Incidents) != 2 {
		t.Fatalf("%d incidents, want 2", len(dump.Incidents))
	}
	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/incidents?txn=4")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Incidents) != 1 || dump.Incidents[0].Stage != "push" {
		t.Fatalf("?txn=4 returned %d incidents", len(dump.Incidents))
	}
	if code, _ := get(t, srv, "/debug/incidents?txn=bogus"); code != 400 {
		t.Fatalf("bad txn = %d, want 400", code)
	}
}
