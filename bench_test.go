// Benchmarks regenerating the paper's evaluation (one per table/figure;
// see DESIGN.md for the experiment index) plus the ablations DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
package nerpa

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/deploy"
	"repro/internal/dl"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/workload"
)

// --- T1 (§4.3): per-port latency through the full stack ---

func BenchmarkT1PortScaleFullStack(b *testing.B) {
	s, err := deploy.Start(bench.SnvsSpec(nil))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Transact(ovsdb.OpInsert("Port", workload.AccessPortRow(i, 10))); err != nil {
			b.Fatal(err)
		}
		if err := s.WaitEntries("snvs0", "in_vlan", i+1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T3 (§2.2): load-balancer cold start + teardown ---

func BenchmarkT3LoadBalancerEngine(b *testing.B) {
	lbs := workload.LBs(10, 200)
	prog, err := dl.Compile(baseline.LBRules)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := prog.NewRuntime(engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, lb := range lbs {
			if _, err := rt.Apply(workload.LBInsertUpdates(lb)); err != nil {
				b.Fatal(err)
			}
		}
		for _, lb := range lbs {
			if _, err := rt.Apply(workload.LBDeleteUpdates(lb)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkT3LoadBalancerBaseline(b *testing.B) {
	lbs := workload.LBs(10, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		installed := baseline.NewEntrySet()
		for _, lb := range lbs {
			for id, e := range baseline.LBEntries([]baseline.LB{lb}).Entries {
				installed.Entries[id] = e
			}
		}
		for _, lb := range lbs {
			for id := range baseline.LBEntries([]baseline.LB{lb}).Entries {
				delete(installed.Entries, id)
			}
		}
	}
}

// --- T4 (§2.2): steady-state change, incremental vs recompute+diff ---

func benchSnvsEngineLoaded(b *testing.B, ports int) *engine.Runtime {
	b.Helper()
	rt, err := bench.SnvsEngine()
	if err != nil {
		b.Fatal(err)
	}
	var load []engine.Update
	load = append(load, engine.Insert("SwitchCfg", value.Record{
		value.String("u-cfg"), value.Bool(true), value.String("snvs0"),
	}))
	for i := 0; i < ports; i++ {
		load = append(load, engine.Insert("Port", workload.PortRecord(i, 10)))
		load = append(load, engine.Insert("Learn", workload.LearnedRecord(i, i, 10)))
	}
	if _, err := rt.Apply(load); err != nil {
		b.Fatal(err)
	}
	return rt
}

func BenchmarkT4IncrementalPerChange(b *testing.B) {
	for _, ports := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("ports-%d", ports), func(b *testing.B) {
			rt := benchSnvsEngineLoaded(b, ports)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := workload.PortRecord(ports+1, 10)
				if _, err := rt.Apply([]engine.Update{engine.Insert("Port", rec)}); err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Apply([]engine.Update{engine.Delete("Port", rec)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT4RecomputePerChange(b *testing.B) {
	for _, ports := range []int{100, 1000, 4000} {
		b.Run(fmt.Sprintf("ports-%d", ports), func(b *testing.B) {
			state := baseline.NewSNVSState()
			state.FloodUnknown = true
			for i := 0; i < ports; i++ {
				p := workload.PortCfg(i, 10)
				state.Ports[p.Name] = p
				state.Learned = append(state.Learned, baseline.LearnedMac{
					Mac: uint64(0xaa0000000000 + i), Vlan: p.Tag, Port: p.Num,
				})
			}
			installed := state.DesiredEntries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := workload.PortCfg(ports+1, 10)
				state.Ports[p.Name] = p
				next := state.DesiredEntries()
				baseline.Diff(installed, next)
				installed = next
				delete(state.Ports, p.Name)
				next = state.DesiredEntries()
				baseline.Diff(installed, next)
				installed = next
			}
		})
	}
}

// --- T5 (§1): labeling under link churn ---

func benchTreeEngine(b *testing.B, n int) (*engine.Runtime, workload.Graph) {
	b.Helper()
	g := workload.RandomTree(n, 7)
	prog, err := dl.Compile(workload.ReachabilityRules)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := prog.NewRuntime(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	load := []engine.Update{engine.Insert("GivenLabel", value.Record{
		value.String("n0"), value.String("L"),
	})}
	for _, e := range g.Edges {
		load = append(load, workload.EdgeUpdate(workload.EdgeChange{Add: true, Edge: e}))
	}
	if _, err := rt.Apply(load); err != nil {
		b.Fatal(err)
	}
	return rt, g
}

func BenchmarkT5LabelIncremental(b *testing.B) {
	rt, g := benchTreeEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := g.Edges[i%len(g.Edges)]
		if _, err := rt.Apply([]engine.Update{workload.EdgeUpdate(
			workload.EdgeChange{Add: false, Edge: e})}); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Apply([]engine.Update{workload.EdgeUpdate(
			workload.EdgeChange{Add: true, Edge: e})}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT5LabelRecompute(b *testing.B) {
	g := workload.RandomTree(10000, 7)
	given := map[string][]string{"n0": {"L"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.ComputeLabels(given, g.Edges)
	}
}

// --- F3 (Fig. 3): fragment-controller compilation ---

func BenchmarkF3FragmentCompile(b *testing.B) {
	st := baseline.NewFlowState(func() *baseline.SNVSState {
		s := baseline.NewSNVSState()
		s.FloodUnknown = true
		for i := 0; i < 64; i++ {
			p := workload.PortCfg(i, 8)
			s.Ports[p.Name] = p
		}
		return s
	}())
	fc := baseline.NewFragmentController(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc.Flows(st)
	}
}

// --- Ablation 1: arranged (indexed) joins vs scan joins ---

const ablationKeyedJoin = `
input relation R(x: string, y: string)
input relation S(y: string, z: string)
output relation O(x: string, z: string)
O(x, z) :- R(x, y), S(y, z).
`

// The scan variant defeats key unification: y2 is bound by the scan and
// checked with a filter, so the planner cannot use an index.
const ablationScanJoin = `
input relation R(x: string, y: string)
input relation S(y: string, z: string)
output relation O(x: string, z: string)
O(x, z) :- R(x, y), S(y2, z), y2 == y.
`

func ablationJoinEngine(b *testing.B, src string, n int) *engine.Runtime {
	b.Helper()
	prog, err := dl.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := prog.NewRuntime(engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var load []engine.Update
	for i := 0; i < n; i++ {
		load = append(load,
			engine.Insert("S", value.Record{
				value.String(fmt.Sprintf("k%d", i)), value.String(fmt.Sprintf("z%d", i)),
			}))
	}
	if _, err := rt.Apply(load); err != nil {
		b.Fatal(err)
	}
	return rt
}

func BenchmarkAblationJoinIndexed(b *testing.B) {
	rt := ablationJoinEngine(b, ablationKeyedJoin, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := value.Record{value.String("x"), value.String(fmt.Sprintf("k%d", i%2000))}
		if _, err := rt.Apply([]engine.Update{engine.Insert("R", rec)}); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Apply([]engine.Update{engine.Delete("R", rec)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinScan(b *testing.B) {
	rt := ablationJoinEngine(b, ablationScanJoin, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := value.Record{value.String("x"), value.String(fmt.Sprintf("k%d", i%2000))}
		if _, err := rt.Apply([]engine.Update{engine.Insert("R", rec)}); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Apply([]engine.Update{engine.Delete("R", rec)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 2: incremental (semi-naive) insertion vs naive recompute ---

func BenchmarkAblationSemiNaiveInsert(b *testing.B) {
	rt, _ := benchTreeEngine(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := [2]string{"n1", fmt.Sprintf("x%d", i)}
		if _, err := rt.Apply([]engine.Update{workload.EdgeUpdate(
			workload.EdgeChange{Add: true, Edge: e})}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNaiveRecompute(b *testing.B) {
	g := workload.RandomTree(2000, 7)
	prog, err := dl.Compile(workload.ReachabilityRules)
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string][]value.Record{
		"GivenLabel": {{value.String("n0"), value.String("L")}},
	}
	for _, e := range g.Edges {
		inputs["Edge"] = append(inputs["Edge"],
			value.Record{value.String(e[0]), value.String(e[1])})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NaiveEval(prog.Checked, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 3: the unbatched digest learn loop ---

func benchDigestStack(b *testing.B) (*deploy.Stack, func(i int)) {
	b.Helper()
	s, err := deploy.Start(bench.SnvsSpec(nil))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	})); err != nil {
		b.Fatal(err)
	}
	if err := s.Transact(ovsdb.OpInsert("Port", workload.AccessPortRow(0, 1))); err != nil {
		b.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 1); err != nil {
		b.Fatal(err)
	}
	inject := func(i int) {
		e := packet.Ethernet{Dst: 0xffffffffffff, Src: packet.MAC(0x100000 + i), EtherType: 0x1234}
		if err := s.Switch("snvs0").Inject(1, e.Append(nil)); err != nil {
			b.Fatal(err)
		}
	}
	return s, inject
}

func BenchmarkAblationDigestLearn(b *testing.B) {
	s, inject := benchDigestStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(i)
		if err := s.WaitEntries("snvs0", "smac", i+1); err != nil {
			b.Fatal(err)
		}
	}
}
