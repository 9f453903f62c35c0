package obs

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func stageAt(name string, t0 time.Time, d time.Duration) Stage {
	return Stage{Name: name, Start: t0, End: t0.Add(d)}
}

func TestTracerRecordAndGet(t *testing.T) {
	tr := NewTracer(4)
	t0 := time.Unix(1000, 0)
	tr.Record(7, "ovsdb", stageAt("commit", t0, time.Millisecond))
	tr.Record(7, "", stageAt("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	got, ok := tr.Get(7)
	if !ok {
		t.Fatalf("trace 7 missing")
	}
	if got.Source != "ovsdb" || len(got.Stages) != 2 {
		t.Fatalf("trace = %+v", got)
	}
	if _, ok := tr.Get(99); ok {
		t.Fatalf("phantom trace")
	}
}

func TestTracerDropsZeroTxn(t *testing.T) {
	tr := NewTracer(4)
	tr.Record(0, "x", stageAt("commit", time.Unix(0, 0), 0))
	if got := tr.Recent(0); len(got) != 0 {
		t.Fatalf("txn 0 retained: %v", got)
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(3)
	t0 := time.Unix(1000, 0)
	for id := uint64(1); id <= 5; id++ {
		tr.Record(id, "s", stageAt("commit", t0, 0))
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatalf("oldest trace not evicted")
	}
	recent := tr.Recent(0)
	if len(recent) != 3 || recent[0].TxnID != 3 || recent[2].TxnID != 5 {
		t.Fatalf("recent = %+v", recent)
	}
	// Recent(n) limits to the newest n.
	if last := tr.Recent(1); len(last) != 1 || last[0].TxnID != 5 {
		t.Fatalf("recent(1) = %+v", last)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(1, "s", Stage{})
	if _, ok := tr.Get(1); ok {
		t.Fatalf("nil tracer stored a trace")
	}
	if tr.Recent(0) != nil || tr.Evicted() != 0 {
		t.Fatalf("nil tracer leaked state")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traces":[]`) {
		t.Fatalf("nil tracer JSON = %q", sb.String())
	}
}

func TestWriteJSONSortsStages(t *testing.T) {
	tr := NewTracer(4)
	t0 := time.Unix(1000, 0).UTC()
	// Record out of order; JSON output must be sorted by start time.
	tr.Record(1, "ovsdb", Stage{Name: "push", Start: t0.Add(2 * time.Millisecond), End: t0.Add(3 * time.Millisecond)})
	tr.Record(1, "", Stage{Name: "commit", Start: t0, End: t0.Add(time.Millisecond), Device: "sw0"}.F("updates", 4))
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 0); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Evicted uint64  `json:"evicted"`
		Traces  []Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(dump.Traces) != 1 {
		t.Fatalf("traces = %+v", dump.Traces)
	}
	st := dump.Traces[0].Stages
	if len(st) != 2 || st[0].Name != "commit" || st[1].Name != "push" {
		t.Fatalf("stages not sorted: %+v", st)
	}
	if v, _ := st[0].Field("updates"); v != 4 || st[0].Device != "sw0" {
		t.Fatalf("attrs lost: %+v", st[0])
	}
}

// TestTracerConcurrentHammer races writers against every reader; run with
// -race. Correctness here is "no data race and no lost own-stage": each
// writer's transactions are private to it, so unless evicted they must
// hold exactly the stages that writer recorded.
func TestTracerConcurrentHammer(t *testing.T) {
	const writers, txnsPerWriter, stages = 8, 50, 4
	tr := NewTracer(writers * txnsPerWriter) // no eviction: all survive
	t0 := time.Unix(2000, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerWriter; i++ {
				id := uint64(w*txnsPerWriter + i + 1)
				for s := 0; s < stages; s++ {
					tr.Record(id, "hammer", stageAt("s", t0.Add(time.Duration(s)), time.Millisecond))
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for loop := true; loop; {
		select {
		case <-done:
			loop = false
		default:
			tr.Recent(10)
			tr.Get(1)
			tr.Evicted()
			if err := tr.WriteJSON(io.Discard, 5); err != nil {
				t.Errorf("WriteJSON: %v", err)
				loop = false
			}
		}
	}
	if got := tr.Evicted(); got != 0 {
		t.Fatalf("evicted %d traces from an unfilled ring", got)
	}
	for id := uint64(1); id <= writers*txnsPerWriter; id++ {
		trace, ok := tr.Get(id)
		if !ok || len(trace.Stages) != stages {
			t.Fatalf("txn %d: ok=%v stages=%d, want %d", id, ok, len(trace.Stages), stages)
		}
	}
}

// TestTracerConvergenceEitherOrder: the convergence histogram observes a
// transaction exactly once whether its commit or its switch-applied stage
// is recorded first, and with the same commit-start to apply-end span.
func TestTracerConvergenceEitherOrder(t *testing.T) {
	t0 := time.Unix(1000, 0)
	commit := stageAt(StageCommit, t0, time.Millisecond)
	applied := stageAt(StageSwitchApplied, t0.Add(3*time.Millisecond), 2*time.Millisecond)
	for _, order := range [][]Stage{{commit, applied}, {applied, commit}} {
		tr := NewTracer(4)
		tr.convergence = NewRegistry().Histogram("c", "c", nil)
		tr.Record(9, "", stageAt("delta", t0.Add(time.Millisecond), time.Millisecond))
		for _, st := range order {
			tr.Record(9, "", st)
		}
		if n := tr.convergence.Count(); n != 1 {
			t.Fatalf("order %s,%s: %d observations, want 1", order[0].Name, order[1].Name, n)
		}
		if got := tr.convergence.Sum(); got != 0.005 {
			t.Fatalf("order %s,%s: observed %vs, want 0.005s", order[0].Name, order[1].Name, got)
		}
	}
}
