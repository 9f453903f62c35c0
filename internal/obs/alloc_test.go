package obs

import (
	"testing"
	"time"
)

// TestObsHotPathZeroAlloc guards the acceptance criterion that counter
// increments and histogram observes allocate nothing for pre-registered
// series (mirroring engine's TestArrangementProbeZeroAlloc). Registration
// may allocate; the per-event hot path must not.
func TestObsHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "h", L("plane", "test"))
	g := r.Gauge("hot_gauge", "h")
	h := r.Histogram("hot_seconds", "h", nil)

	cases := []struct {
		name string
		run  func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Add", func() { g.Add(0.5) }},
		{"Histogram.Observe", func() { h.Observe(0.0042) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}

	// The nil (disabled) instruments must be alloc-free too.
	var nc *Counter
	var nh *Histogram
	if allocs := testing.AllocsPerRun(200, func() { nc.Inc(); nh.Observe(1) }); allocs != 0 {
		t.Errorf("nil instruments: %v allocs/op, want 0", allocs)
	}
}

// TestEventPoolZeroAlloc guards the event hot path: building and
// appending a flight-recorder event reuses a ring slot and allocates
// nothing once warm.
func TestEventPoolZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	now := time.Now()
	appendEv := func() {
		r.Append(Ev("core", "txn.apply").WithTxn(7).At(now).
			F("updates", 3).F("delta", 2))
	}
	appendEv()
	if allocs := testing.AllocsPerRun(200, appendEv); allocs != 0 {
		t.Errorf("Recorder.Append: %v allocs/op, want 0", allocs)
	}
}

// TestTracerRecordZeroAlloc guards the trace hot path: once every slot
// of the ring has held a trace, recording a transaction's stages —
// evicting the oldest trace and reusing its slot's stage slice —
// allocates nothing.
func TestTracerRecordZeroAlloc(t *testing.T) {
	const slots, stages = 8, 6
	tr := NewTracer(slots)
	now := time.Now()
	txn := uint64(0)
	record := func() {
		txn++
		for i := 0; i < stages; i++ {
			tr.Record(txn, "core", Stage{Name: "push", Start: now, End: now, Device: "sw0"}.
				F("updates", int64(i)).F("failed", 0))
		}
	}
	for range 4 * slots {
		record()
	}
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Errorf("Tracer.Record: %v allocs/txn, want 0", allocs)
	}
	if got, ok := tr.Get(txn); !ok || len(got.Stages) != stages {
		t.Fatalf("trace %d after warm-up: %+v, %v", txn, got, ok)
	}
}

// TestTraceEvictionReusesSlot: a trace that replaces an evicted one in
// its ring slot starts empty, even though it reuses the slot's stage
// slice, and a copy taken before the eviction keeps its stages.
func TestTraceEvictionReusesSlot(t *testing.T) {
	tr := NewTracer(2)
	tr.Record(1, "core", Stage{Name: "delta"}.F("updates", 41))
	tr.Record(1, "core", Stage{Name: "push", Device: "sw0"})
	snap, ok := tr.Get(1)
	if !ok || len(snap.Stages) != 2 {
		t.Fatalf("snapshot before eviction: %+v ok=%v", snap, ok)
	}
	tr.Record(2, "core", Stage{Name: "delta"})
	tr.Record(3, "", Stage{Name: "commit"}.F("updates", 99)) // evicts txn 1, takes its slot
	if _, ok := tr.Get(1); ok {
		t.Fatal("txn 1 still retained after eviction")
	}
	got, ok := tr.Get(3)
	if !ok || got.Source != "" || len(got.Stages) != 1 || got.Stages[0].Name != "commit" {
		t.Fatalf("trace 3 in the reused slot = %+v, want only its own commit stage", got)
	}
	if v, _ := snap.Stages[0].Field("updates"); v != 41 || snap.Stages[1].Device != "sw0" {
		t.Fatalf("pre-eviction copy changed: %+v", snap.Stages)
	}
	if recent := tr.Recent(0); len(recent) != 2 || recent[0].TxnID != 2 || recent[1].TxnID != 3 {
		t.Fatalf("recent = %+v, want txns 2, 3", recent)
	}
}
