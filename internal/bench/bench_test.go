package bench

import (
	"strings"
	"testing"
)

func TestRunPortScaleSmall(t *testing.T) {
	res, err := RunPortScale(40)
	if err != nil {
		t.Fatalf("RunPortScale: %v", err)
	}
	if res.N != 40 || res.First <= 0 || res.Last <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// Incrementality: per-port latency must not grow with table size.
	// Generous bound to keep CI noise out; the real check is the printed
	// ratio (paper: 18ms/13ms ≈ 1.4x at 2000 ports).
	if res.LastOverFirst > 8 {
		t.Errorf("per-port latency grew %.1fx from first to last tenth", res.LastOverFirst)
	}
	if !strings.Contains(res.String(), "T1") {
		t.Errorf("report missing header: %s", res)
	}
}

func TestRunLoadBalancerSmall(t *testing.T) {
	res, err := RunLoadBalancer(10, 50)
	if err != nil {
		t.Fatalf("RunLoadBalancer: %v", err)
	}
	if res.IncrCPU <= 0 || res.BaseCPU <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The paper's point: the automatic engine pays overhead on this
	// adversarial workload.
	if res.CPURatio < 1 {
		t.Errorf("engine unexpectedly faster than direct translation: %.2fx", res.CPURatio)
	}
	t.Logf("\n%s", res)
}

func TestRunIncrVsRecomputeSmall(t *testing.T) {
	res, err := RunIncrVsRecompute([]int{50, 200}, 40) // 40 changes: a 10-change mean flips on one GC pause when the box is busy
	if err != nil {
		t.Fatalf("RunIncrVsRecompute: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Incremental must win, and the win must grow with network size.
	if res.Rows[0].Speedup < 1 {
		t.Errorf("incremental slower at %d ports: %+v", res.Rows[0].Ports, res.Rows[0])
	}
	if res.Rows[1].Speedup <= res.Rows[0].Speedup {
		t.Errorf("speedup did not grow with size: %v", res.Rows)
	}
	t.Logf("\n%s", res)
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
