package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

func TestRuleProfilerTopKAndOther(t *testing.T) {
	p := newRuleProfiler()
	p.topK = 3
	var samples []RuleSample
	for i := 0; i < 10; i++ {
		samples = append(samples, RuleSample{
			ID:     fmt.Sprintf("R%d#0", i),
			Label:  fmt.Sprintf("R%d(x) :- S(x).", i),
			EvalNs: int64((i + 1) * 1000),
		})
	}
	p.ObserveTxn(samples)
	rep := p.Report(0)
	if rep.Txns != 1 || rep.TopK != 3 {
		t.Fatalf("report header = %+v", rep)
	}
	if len(rep.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rep.Rules))
	}
	// The most expensive rules must rank first.
	if rep.Rules[0].ID != "R9#0" || rep.Rules[1].ID != "R8#0" || rep.Rules[2].ID != "R7#0" {
		t.Fatalf("ranking wrong: %+v", rep.Rules)
	}
	if rep.Rules[0].Share <= rep.Rules[1].Share {
		t.Fatalf("shares not descending: %+v", rep.Rules[:2])
	}
	if rep.Other == nil || rep.Other.Count != 7 {
		t.Fatalf("other rollup = %+v, want 7 rules", rep.Other)
	}
	var share float64
	for _, r := range rep.Rules {
		share += r.Share
	}
	share += rep.Other.Share
	if share < 0.999 || share > 1.001 {
		t.Fatalf("shares sum to %g, want 1", share)
	}

	// ?limit= narrows but never widens beyond the configured top-K.
	if got := len(p.Report(2).Rules); got != 2 {
		t.Fatalf("Report(2) returned %d rules", got)
	}
	if got := len(p.Report(100).Rules); got != 3 {
		t.Fatalf("Report(100) returned %d rules, want top-K cap 3", got)
	}
}

func TestRuleProfilerEwmaDecay(t *testing.T) {
	p := newRuleProfiler()
	p.ObserveTxn([]RuleSample{{ID: "A#0", EvalNs: 1_000_000}})
	hot := p.RuleEwmaSeconds("A#0")
	if hot != 1e-3 {
		t.Fatalf("first observation should seed the EWMA: %g", hot)
	}
	// The rule goes idle: subsequent transactions decay its cost.
	for i := 0; i < 20; i++ {
		p.ObserveTxn([]RuleSample{{ID: "B#0", EvalNs: 500}})
	}
	if cooled := p.RuleEwmaSeconds("A#0"); cooled >= hot/50 {
		t.Fatalf("idle rule did not decay: %g -> %g", hot, cooled)
	}
	if ev, der, dt := p.RuleTotals("A#0"); ev != 1_000_000 || der != 0 || dt != 0 {
		t.Fatalf("cumulative totals changed while idle: %d %d %d", ev, der, dt)
	}
}

func TestRuleProfilerNil(t *testing.T) {
	var p *RuleProfiler
	p.ObserveTxn([]RuleSample{{ID: "x"}})
	p.SetMemory(MemSnapshot{Bytes: 1})
	p.EnsureRule("x", "", 0, false)
	if rep := p.Report(0); len(rep.Rules) != 0 || rep.Other != nil {
		t.Fatalf("nil profiler report = %+v", rep)
	}
	var o *Observer
	if o.Prof() != nil {
		t.Fatal("nil observer returned a profiler")
	}
}

func TestDebugRulesAndMemoryEndpoints(t *testing.T) {
	o := NewObserver()
	o.Profiler.topK = 2
	o.Prof().ObserveTxn([]RuleSample{
		{ID: "Hot#0", Label: "Hot(a,c) :- In(a,b), In(c,b).", Stratum: 2, EvalNs: 9000, Derivations: 100, DeltaTuples: 50},
		{ID: "Cheap#0", Label: "Cheap(b,a) :- In(a,b).", Stratum: 1, EvalNs: 100, Derivations: 10, DeltaTuples: 10},
		{ID: "Mid#0", EvalNs: 500},
	})
	o.Prof().SetMemory(MemSnapshot{
		Relations: []RelMem{
			{Name: "In", Tuples: 10, Indexes: 1, IndexEntries: 10, Bytes: 800},
			{Name: "Hot", Tuples: 100, Bytes: 9000, Stratum: 2},
		},
		Tuples: 110, IndexEntries: 10, Bytes: 9800,
		Provenance: ProvMem{Facts: 110, Bytes: 7040},
	})
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	var rep RuleReport
	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/rules")), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rules) != 2 || rep.Rules[0].ID != "Hot#0" || rep.Other == nil || rep.Other.Count != 1 {
		t.Fatalf("/debug/rules = %+v", rep)
	}
	if rep.Rules[0].Derivations != 100 || rep.Rules[0].DeltaTuples != 50 {
		t.Fatalf("hot rule row = %+v", rep.Rules[0])
	}

	var mem struct {
		At time.Time `json:"at"`
		MemSnapshot
	}
	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/memory")), &mem); err != nil {
		t.Fatal(err)
	}
	if mem.At.IsZero() || mem.Bytes != 9800 || mem.Provenance.Facts != 110 {
		t.Fatalf("/debug/memory = %+v", mem)
	}
	// Relations come sorted by bytes descending.
	if len(mem.Relations) != 2 || mem.Relations[0].Name != "Hot" {
		t.Fatalf("relations not sorted by bytes: %+v", mem.Relations)
	}
}

// TestDebugLimitValidation covers the shared ?limit=/?n= parser: every
// /debug/* list endpoint rejects negative and non-numeric caps with 400
// and accepts both spellings.
func TestDebugLimitValidation(t *testing.T) {
	o := NewObserver()
	o.TrackValue("core_queue_depth", func() float64 { return 1 })
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/debug/traces?limit=-1",
		"/debug/traces?n=zzz",
		"/debug/events?limit=abc",
		"/debug/events?n=-5",
		"/debug/history?series=core_queue_depth&n=-2",
		"/debug/history?limit=x",
		"/debug/rules?limit=-3",
		"/debug/rules?n=nope",
	} {
		if code, body := get(t, srv, path); code != 400 {
			t.Errorf("GET %s = %d (%q), want 400", path, code, body)
		}
	}
	for _, path := range []string{
		"/debug/traces?limit=2",
		"/debug/traces?n=2",
		"/debug/events?limit=0",
		"/debug/history?series=core_queue_depth&limit=3",
		"/debug/rules?limit=1",
		"/debug/rules",
	} {
		if code, body := get(t, srv, path); code != 200 {
			t.Errorf("GET %s = %d (%q), want 200", path, code, body)
		}
	}
}
