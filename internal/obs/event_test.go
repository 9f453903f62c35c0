package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Append(Ev("core", "push.start").WithTxn(uint64(i)))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	events, evicted, total := r.Snapshot(EventFilter{})
	if total != 10 || evicted != 6 {
		t.Fatalf("total=%d evicted=%d, want 10, 6", total, evicted)
	}
	if len(events) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(events))
	}
	for i, ev := range events {
		if want := uint64(7 + i); ev.Seq != want || ev.Txn != want {
			t.Fatalf("event %d: seq=%d txn=%d, want %d (oldest-first)", i, ev.Seq, ev.Txn, want)
		}
	}
}

func TestEventFieldOverflowDropped(t *testing.T) {
	ev := Ev("core", "delta.done")
	for i := 0; i < maxEventFields+3; i++ {
		ev = ev.F(fmt.Sprintf("f%d", i), int64(i))
	}
	if int(ev.nf) != maxEventFields {
		t.Fatalf("nf = %d, want %d", ev.nf, maxEventFields)
	}
	if _, ok := ev.Field(fmt.Sprintf("f%d", maxEventFields)); ok {
		t.Fatal("overflow field retained")
	}
	if v, ok := ev.Field("f0"); !ok || v != 0 {
		t.Fatalf("f0 = %d,%v, want 0,true", v, ok)
	}
}

func TestEventFilterCombos(t *testing.T) {
	r := NewRecorder(64)
	base := time.Unix(1000, 0)
	// Interleave planes and txns with increasing timestamps.
	for i := 1; i <= 12; i++ {
		plane, kind := "ovsdb", "txn.commit"
		if i%2 == 0 {
			plane, kind = "core", "push.start"
		}
		r.Append(Ev(plane, kind).WithTxn(uint64(i%3 + 1)).At(base.Add(time.Duration(i) * time.Second)))
	}

	cases := []struct {
		name string
		f    EventFilter
		want int
	}{
		{"all", EventFilter{}, 12},
		{"plane", EventFilter{Plane: "core"}, 6},
		{"kind", EventFilter{Kind: "txn.commit"}, 6},
		{"txn", EventFilter{Txn: 2}, 4},                       // i = 1, 4, 7, 10
		{"plane+txn", EventFilter{Plane: "ovsdb", Txn: 2}, 2}, // i = 1, 7
		{"since-seq", EventFilter{SinceSeq: 9}, 3},
		{"since-time", EventFilter{Since: base.Add(10 * time.Second)}, 3},
		{"plane+txn+since", EventFilter{Plane: "ovsdb", Txn: 2, SinceSeq: 4}, 1}, // i = 7
		{"limit", EventFilter{Limit: 5}, 5},
		{"plane+limit", EventFilter{Plane: "core", Limit: 2}, 2},
	}
	for _, tc := range cases {
		events, _, _ := r.Snapshot(tc.f)
		if len(events) != tc.want {
			t.Errorf("%s: %d events, want %d", tc.name, len(events), tc.want)
		}
		for i := 1; i < len(events); i++ {
			if events[i].Seq <= events[i-1].Seq {
				t.Errorf("%s: events out of order at %d", tc.name, i)
			}
		}
	}
	// Limit keeps the NEWEST matches.
	events, _, _ := r.Snapshot(EventFilter{Limit: 2})
	if events[0].Seq != 11 || events[1].Seq != 12 {
		t.Fatalf("limit kept seqs %d,%d, want 11,12", events[0].Seq, events[1].Seq)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Ev("p4rt", "rpc.write").WithTxn(7).WithDevice("sw0").
		At(time.Unix(42, 0).UTC()).F("updates", 3).F("rpc_us", 1500)
	in.Seq = 9
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != 9 || out.Plane != "p4rt" || out.Kind != "rpc.write" ||
		out.Txn != 7 || out.Device != "sw0" {
		t.Fatalf("round trip lost identity: %+v", out)
	}
	if v, ok := out.Field("updates"); !ok || v != 3 {
		t.Fatalf("round trip lost field: %d,%v", v, ok)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Append(Ev("core", "push.start")) // must not panic
	if r.Len() != 0 {
		t.Fatal("nil recorder has length")
	}
	events, evicted, total := r.Snapshot(EventFilter{})
	if events != nil || evicted != 0 || total != 0 {
		t.Fatal("nil recorder snapshot nonempty")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb, EventFilter{}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHotPathZeroAlloc guards the flight recorder's acceptance
// criterion: appending an event — the per-transaction hot path in every
// plane — must not allocate, enabled or disabled.
func TestEventHotPathZeroAlloc(t *testing.T) {
	var nr *Recorder
	if allocs := testing.AllocsPerRun(200, func() {
		nr.Append(Ev("core", "device.write").WithTxn(1).WithDevice("sw0").
			F("updates", 4).F("write_us", 120))
	}); allocs != 0 {
		t.Errorf("disabled Append: %v allocs/op, want 0", allocs)
	}

	r := NewRecorder(64)
	if allocs := testing.AllocsPerRun(200, func() {
		r.Append(Ev("core", "device.write").WithTxn(1).WithDevice("sw0").
			At(time.Unix(1, 0)).F("updates", 4).F("write_us", 120))
	}); allocs != 0 {
		t.Errorf("enabled Append: %v allocs/op, want 0", allocs)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	o := NewObserver()
	rec := o.Rec()
	base := time.Unix(2000, 0).UTC()
	rec.Append(Ev("ovsdb", "txn.commit").WithTxn(1).At(base).F("ops", 2))
	rec.Append(Ev("core", "push.start").WithTxn(1).At(base.Add(time.Second)))
	rec.Append(Ev("core", "device.write").WithTxn(1).WithDevice("sw0").At(base.Add(2 * time.Second)))
	rec.Append(Ev("ovsdb", "txn.commit").WithTxn(2).At(base.Add(3 * time.Second)))
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	decode := func(body string) eventDump {
		t.Helper()
		var d struct {
			Total   uint64  `json:"total"`
			Evicted uint64  `json:"evicted"`
			Events  []Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatalf("decoding dump: %v\n%s", err, body)
		}
		return eventDump{Total: d.Total, Evicted: d.Evicted, Events: d.Events}
	}

	code, body := get(t, srv, "/debug/events")
	if code != 200 {
		t.Fatalf("/debug/events = %d: %s", code, body)
	}
	if d := decode(body); d.Total != 4 || len(d.Events) != 4 {
		t.Fatalf("unfiltered: total=%d events=%d, want 4,4", d.Total, len(d.Events))
	}
	if d := decode(get2(t, srv, "/debug/events?plane=core")); len(d.Events) != 2 {
		t.Fatalf("?plane=core: %d events, want 2", len(d.Events))
	}
	if d := decode(get2(t, srv, "/debug/events?kind=txn.commit")); len(d.Events) != 2 {
		t.Fatalf("?kind=txn.commit: %d events, want 2", len(d.Events))
	}
	if d := decode(get2(t, srv, "/debug/events?txn=1")); len(d.Events) != 3 {
		t.Fatalf("?txn=1: %d events, want 3", len(d.Events))
	}
	if d := decode(get2(t, srv, "/debug/events?plane=core&txn=1&since=1")); len(d.Events) != 2 {
		t.Fatalf("?plane&txn&since(seq): %d events, want 2", len(d.Events))
	}
	since := base.Add(3 * time.Second).Format(time.RFC3339)
	if d := decode(get2(t, srv, "/debug/events?since="+since)); len(d.Events) != 1 {
		t.Fatalf("?since(RFC3339): %d events, want 1", len(d.Events))
	}
	if d := decode(get2(t, srv, "/debug/events?limit=1")); len(d.Events) != 1 || d.Events[0].Seq != 4 {
		t.Fatalf("?limit=1 did not keep the newest event")
	}

	if code, _ := get(t, srv, "/debug/events?txn=bogus"); code != 400 {
		t.Fatalf("bad txn = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/debug/events?since=yesterday"); code != 400 {
		t.Fatalf("bad since = %d, want 400", code)
	}
}

// get2 is get returning only the body, for one-liner assertions.
func get2(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	code, body := get(t, srv, path)
	if code != 200 {
		t.Fatalf("GET %s = %d: %s", path, code, body)
	}
	return body
}

func TestDebugEventsNDJSON(t *testing.T) {
	o := NewObserver()
	for i := 1; i <= 3; i++ {
		o.Rec().Append(Ev("ovsdb", "txn.commit").WithTxn(uint64(i)))
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/events?format=ndjson&plane=ovsdb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var n int
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not a JSON event: %v\n%s", n, err, line)
		}
		n++
		if ev.Txn != uint64(n) {
			t.Fatalf("line %d: txn = %d (events must stream oldest first)", n, ev.Txn)
		}
	}
	if n != 3 {
		t.Fatalf("streamed %d events, want 3", n)
	}
}

// TestEventAppendDumpRace hammers Append from several goroutines while
// concurrently snapshotting and serving dumps; run under -race this
// guards the ring's locking.
func TestEventAppendDumpRace(t *testing.T) {
	o := NewObserver()
	rec := o.Rec()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					rec.Append(Ev("core", "push.start").WithTxn(uint64(g*1000+i)).
						F("updates", int64(i)))
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		rec.Snapshot(EventFilter{Plane: "core", Limit: 16})
		if code, _ := get(t, srv, "/debug/events?limit=8"); code != 200 {
			t.Errorf("dump %d failed with %d", i, code)
		}
		if code, _ := get(t, srv, "/debug/events?format=ndjson&limit=8"); code != 200 {
			t.Errorf("ndjson dump %d failed with %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
	if rec.Len() == 0 {
		t.Fatal("ring empty after hammer")
	}
}
