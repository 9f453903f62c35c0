package bench

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dl"
	"repro/internal/dl/engine"
	"repro/internal/workload"
)

// The paper's claims are shapes. These tests run each experiment for its
// report and check the shape on counts the test computes itself, which do
// not move with how busy the machine is; timings stay in the printed
// reports.

// derivations applies each update as its own transaction and returns the
// engine's derivation count for each.
func derivations(t *testing.T, rt *engine.Runtime, updates ...engine.Update) []int64 {
	t.Helper()
	out := make([]int64, 0, len(updates))
	for _, u := range updates {
		if _, err := rt.Apply([]engine.Update{u}); err != nil {
			t.Fatal(err)
		}
		out = append(out, rt.LastApplyStats().Derivations)
	}
	return out
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func TestRunPortScaleSmall(t *testing.T) {
	// RunPortScale waits for exactly one more in_vlan entry per port, so
	// its returning at all means one entry was pushed per port.
	res, err := RunPortScale(40)
	if err != nil {
		t.Fatalf("RunPortScale: %v", err)
	}
	if res.N != 40 || res.First <= 0 || res.Last <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(res.String(), "T1") {
		t.Errorf("report missing header: %s", res)
	}
	// Flat: the engine's work per added port does not grow with the table
	// (the paper: 13 ms first, 18 ms last at 2,000 ports).
	rt, err := SnvsEngineOpts(engine.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	var ups []engine.Update
	for i := 0; i < res.N; i++ {
		ups = append(ups, engine.Insert("Port", workload.PortRecord(i, incrVlans)))
	}
	per := derivations(t, rt, ups...)
	tenth := res.N / 10
	first, last := sum(per[:tenth]), sum(per[res.N-tenth:])
	if first <= 0 || last > first {
		t.Errorf("derivations per port grew from %d (first tenth) to %d (last tenth): %v", first, last, per)
	}
	t.Logf("\n%s  derivations per port: %v", res, per)
}

func TestRunLoadBalancerSmall(t *testing.T) {
	const vips, backends = 10, 50
	res, err := RunLoadBalancer(vips, backends)
	if err != nil {
		t.Fatalf("RunLoadBalancer: %v", err)
	}
	if res.IncrCPU <= 0 || res.BaseCPU <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The paper's point: the automatic engine pays overhead on this
	// adversarial workload. It derives the same facts the direct
	// translation computes as entries, but keeps every input and its
	// arrangements beside them, which nothing here ever amortizes.
	prog, err := dl.Compile(baseline.LBRules)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := prog.NewRuntime(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, lb := range workload.LBs(vips, backends) {
		if _, err := rt.Apply(workload.LBInsertUpdates(lb)); err != nil {
			t.Fatal(err)
		}
		entries += len(baseline.LBEntries([]baseline.LB{lb}).Entries)
	}
	held := rt.Stats()
	if held.Tuples+held.IndexEntries < 2*entries {
		t.Errorf("engine holds %d tuples + %d index entries for %d entries, want at least twice", held.Tuples, held.IndexEntries, entries)
	}
	t.Logf("\n%s  engine holds %d tuples + %d index entries; baseline %d entries", res, held.Tuples, held.IndexEntries, entries)
}

func TestRunIncrVsRecomputeSmall(t *testing.T) {
	res, err := RunIncrVsRecompute([]int{50, 200}, 10)
	if err != nil {
		t.Fatalf("RunIncrVsRecompute: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Incremental work per change stays flat as the network grows, while
	// recompute rebuilds every desired entry, so the gap widens with size.
	var derivs []int64
	var rebuilt []int
	for _, n := range []int{50, 200} {
		rt, err := incrNetwork(n, engine.Options{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		port := workload.PortRecord(n, incrVlans)
		derivs = append(derivs, sum(derivations(t, rt, engine.Insert("Port", port), engine.Delete("Port", port))))
		rebuilt = append(rebuilt, len(recomputeNetwork(n).DesiredEntries().Entries))
	}
	if derivs[1] > derivs[0]*3/2 {
		t.Errorf("engine derivations per change grew with size: %v at 50 and 200 ports", derivs)
	}
	if rebuilt[1] < 3*rebuilt[0] {
		t.Errorf("recompute rebuilt %v entries at 50 and 200 ports, want growth with size", rebuilt)
	}
	if derivs[0] >= int64(rebuilt[0]) {
		t.Errorf("engine derived %d facts per change against %d recomputed entries at 50 ports", derivs[0], rebuilt[0])
	}
	t.Logf("\n%s  derivations per change %v, entries recomputed per change %v", res, derivs, rebuilt)
}

func TestRunLabelingSmall(t *testing.T) {
	res, err := RunLabeling(60, 150, 30)
	if err != nil {
		t.Fatalf("RunLabeling: %v", err)
	}
	if res.RuleLines > 10 {
		t.Errorf("the labeling program should be a handful of lines, got %d", res.RuleLines)
	}
	if res.GoLines <= res.RuleLines {
		t.Errorf("Go recompute (%d lines) should exceed the rules (%d lines)",
			res.GoLines, res.RuleLines)
	}
	if res.FinalLabels == 0 {
		t.Errorf("no labels computed")
	}
	t.Logf("\n%s", res)
}

func TestRunFig3(t *testing.T) {
	res := RunFig3()
	if len(res.Rows) < 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last.ImperativeLoC < 5*last.DeclarativeLoC {
		t.Errorf("imperative LoC %d not >> declarative %d",
			last.ImperativeLoC, last.DeclarativeLoC)
	}
	// Both curves grow together (Fig 3's observation).
	first := res.Rows[0]
	locGrowth := float64(last.ImperativeLoC) / float64(first.ImperativeLoC)
	fragGrowth := float64(last.FragmentSites) / float64(first.FragmentSites)
	if locGrowth < 2 || fragGrowth < 2 {
		t.Errorf("curves did not grow: loc %.1fx frag %.1fx", locGrowth, fragGrowth)
	}
	t.Logf("\n%s", res)
}

func TestRunLOC(t *testing.T) {
	res, err := RunLOC()
	if err != nil {
		t.Fatalf("RunLOC: %v", err)
	}
	if res.SchemaTables != 5 {
		t.Errorf("schema tables = %d, want 5", res.SchemaTables)
	}
	if res.RulesLoC == 0 || res.PipelineLoC == 0 || res.GeneratedLoC == 0 {
		t.Errorf("zero LoC measured: %+v", res)
	}
	// The paper's order-of-magnitude claim against hand-incremental code.
	if res.ProjectedIncremental < 5*res.HandTotal {
		t.Errorf("projected incremental %d not >> hand-written %d",
			res.ProjectedIncremental, res.HandTotal)
	}
	t.Logf("\n%s", res)
}
