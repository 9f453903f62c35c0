// Package bench is the evaluation harness: one runner per table/figure of
// the paper, each returning a report whose rows mirror what the paper
// published. cmd/nerpa-bench prints them; bench_test.go wraps them as
// testing.B benchmarks. The full-stack experiments run the snvs
// deployment (SnvsSpec) booted by internal/deploy.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/codegen"
	"repro/internal/deploy"
	"repro/internal/dl"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/snvs"
	"repro/internal/workload"
)

// SnvsSpec is the paper's snvs system on one switch, snvs0: the
// deployment every full-stack experiment boots. o instruments every
// plane (nil: none).
func SnvsSpec(o *obs.Observer) deploy.Spec {
	schema, err := snvs.Schema()
	if err != nil {
		panic(err) // the schema is compiled in: TestSchemaParses holds it
	}
	return deploy.Spec{Schema: schema, Rules: snvs.Rules, Obs: o, Classes: []deploy.Class{
		{Program: snvs.Pipeline(), IDs: []string{"snvs0"}},
	}}
}

// heapAlloc returns live heap bytes after a forced GC.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ---------------------------------------------------------------------
// T1 — §4.3 scalability: add N ports through the full stack, measuring
// per-port latency from the management-plane write to the data-plane
// table entry. The paper reports 13 ms first, 18 ms last at N = 2000 —
// the point is the flat shape (incrementality), not the absolute values.
// ---------------------------------------------------------------------

// PortScaleResult is the T1 report.
type PortScaleResult struct {
	N                     int
	First, Last           time.Duration
	P50, P95, Max         time.Duration
	LastOverFirst         float64 // flatness: ≈1 means incremental
	FirstTenth, LastTenth time.Duration
}

// RunPortScale runs T1 with n ports over the full TCP stack.
func RunPortScale(n int) (*PortScaleResult, error) {
	s, err := deploy.Start(SnvsSpec(nil))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	})); err != nil {
		return nil, err
	}
	const nVlans = 10
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := s.Transact(ovsdb.OpInsert("Port", workloadPortRow(i, nVlans))); err != nil {
			return nil, err
		}
		if err := s.WaitEntries("snvs0", "in_vlan", i+1); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	res := &PortScaleResult{N: n, First: lats[0], Last: lats[n-1]}
	tenth := n / 10
	if tenth == 0 {
		tenth = 1
	}
	res.FirstTenth = avg(lats[:tenth])
	res.LastTenth = avg(lats[n-tenth:])
	res.LastOverFirst = float64(res.LastTenth) / float64(res.FirstTenth)
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.P50 = sorted[n/2]
	res.P95 = sorted[n*95/100]
	res.Max = sorted[n-1]
	return res, nil
}

func workloadPortRow(i, nVlans int) map[string]ovsdb.Value {
	return workload.AccessPortRow(i, nVlans)
}

func avg(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// String renders the report.
func (r *PortScaleResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "T1 (§4.3): %d ports through the full stack\n", r.N)
	fmt.Fprintf(&sb, "  paper:    first 13ms, last 18ms (flat => incremental)\n")
	fmt.Fprintf(&sb, "  measured: first %v, last %v\n", r.First, r.Last)
	fmt.Fprintf(&sb, "  avg first tenth %v, avg last tenth %v (ratio %.2fx)\n",
		r.FirstTenth, r.LastTenth, r.LastOverFirst)
	fmt.Fprintf(&sb, "  p50 %v  p95 %v  max %v\n", r.P50, r.P95, r.Max)
	return sb.String()
}

// ---------------------------------------------------------------------
// T3 — §2.2 load-balancer worst case: cold-start with large LBs, then
// delete each. The paper: automatic incrementality cost ~2x CPU and ~5x
// RAM versus the hand-written C implementation.
// ---------------------------------------------------------------------

// LBResult is the T3 report.
type LBResult struct {
	VIPs, Backends      int
	IncrCPU, BaseCPU    time.Duration
	IncrHeap, BaseHeap  uint64
	CPURatio, HeapRatio float64
}

// RunLoadBalancer runs T3 with v VIPs of b backends each.
func RunLoadBalancer(v, b int) (*LBResult, error) {
	lbs := workload.LBs(v, b)
	res := &LBResult{VIPs: v, Backends: b}

	// Incremental engine: cold start (one transaction per LB, as OVN's
	// benchmark loads them), then delete each.
	prog, err := dl.Compile(baseline.LBRules)
	if err != nil {
		return nil, err
	}
	before := heapAlloc()
	start := time.Now()
	rt, err := prog.NewRuntime(engine.Options{})
	if err != nil {
		return nil, err
	}
	for _, lb := range lbs {
		if _, err := rt.Apply(workload.LBInsertUpdates(lb)); err != nil {
			return nil, err
		}
	}
	res.IncrHeap = heapAlloc() - before
	for _, lb := range lbs {
		if _, err := rt.Apply(workload.LBDeleteUpdates(lb)); err != nil {
			return nil, err
		}
	}
	res.IncrCPU = time.Since(start)
	rt = nil //nolint:ineffassign // release before measuring the baseline

	// Hand-written incremental controller (the C implementation's role):
	// entries computed directly per LB, deletions remove exactly that
	// LB's entries.
	before = heapAlloc()
	start = time.Now()
	installed := baseline.NewEntrySet()
	for _, lb := range lbs {
		for id, e := range baseline.LBEntries([]baseline.LB{lb}).Entries {
			installed.Entries[id] = e
		}
	}
	res.BaseHeap = heapAlloc() - before
	for _, lb := range lbs {
		for id := range baseline.LBEntries([]baseline.LB{lb}).Entries {
			delete(installed.Entries, id)
		}
	}
	if len(installed.Entries) != 0 {
		return nil, fmt.Errorf("bench: baseline teardown left %d entries", len(installed.Entries))
	}
	res.BaseCPU = time.Since(start)

	res.CPURatio = float64(res.IncrCPU) / float64(res.BaseCPU)
	res.HeapRatio = float64(res.IncrHeap) / float64(max64(res.BaseHeap, 1))
	return res, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// String renders the report.
func (r *LBResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "T3 (§2.2): load-balancer cold start + teardown, %d VIPs x %d backends\n",
		r.VIPs, r.Backends)
	fmt.Fprintf(&sb, "  paper:    automatic incrementality ~2x CPU, ~5x RAM vs hand-written C\n")
	fmt.Fprintf(&sb, "  measured: engine %v / baseline %v = %.1fx CPU\n",
		r.IncrCPU, r.BaseCPU, r.CPURatio)
	fmt.Fprintf(&sb, "            engine %.1f MiB / baseline %.1f MiB = %.1fx heap\n",
		float64(r.IncrHeap)/(1<<20), float64(r.BaseHeap)/(1<<20), r.HeapRatio)
	return sb.String()
}

// ---------------------------------------------------------------------
// T4 — §2.2 steady state: single-row changes on a populated network.
// The eBay hand-incremental ovn-controller gained 3x latency and 20x CPU
// over full recomputation; here the automatic incremental engine plays
// the incremental side and the imperative recompute-and-diff controller
// the conventional side.
// ---------------------------------------------------------------------

// IncrRow is one network size's measurements.
type IncrRow struct {
	Ports          int
	IncrPerChange  time.Duration
	RecomputePerCh time.Duration
	Speedup        float64
}

// IncrResult is the T4 report.
type IncrResult struct {
	Changes int
	Rows    []IncrRow
}

// SnvsEngine compiles the generated snvs control-plane program and
// returns a fresh runtime (record layouts match the workload helpers).
func SnvsEngine() (*engine.Runtime, error) {
	return SnvsEngineOpts(engine.Options{})
}

// SnvsEngineOpts is SnvsEngine with explicit engine options (worker
// count, derivation budget, ...).
func SnvsEngineOpts(opts engine.Options) (*engine.Runtime, error) {
	schema, err := snvs.Schema()
	if err != nil {
		return nil, err
	}
	info, err := p4.BuildP4Info(snvs.Pipeline())
	if err != nil {
		return nil, err
	}
	gen, err := codegen.Generate(schema, info, codegen.Options{WithMulticast: true})
	if err != nil {
		return nil, err
	}
	prog, err := gen.CompileWith(snvs.Rules)
	if err != nil {
		return nil, err
	}
	return prog.NewRuntime(opts)
}

// incrVlans is how many VLANs T4's ports spread over.
const incrVlans = 10

// incrNetwork returns the snvs engine loaded with T4's populated
// network: n access ports and one learned MAC per port.
func incrNetwork(n int, opts engine.Options) (*engine.Runtime, error) {
	rt, err := SnvsEngineOpts(opts)
	if err != nil {
		return nil, err
	}
	load := []engine.Update{engine.Insert("SwitchCfg", value.Record{
		value.String("u-cfg"), value.Bool(true), value.String("snvs0"),
	})}
	for i := 0; i < n; i++ {
		load = append(load, engine.Insert("Port", workload.PortRecord(i, incrVlans)))
		load = append(load, engine.Insert("Learn", workload.LearnedRecord(i, i, incrVlans)))
	}
	if _, err := rt.Apply(load); err != nil {
		return nil, err
	}
	return rt, nil
}

// recomputeNetwork is the same network as the recompute-and-diff
// controller's state.
func recomputeNetwork(n int) *baseline.SNVSState {
	state := baseline.NewSNVSState()
	state.FloodUnknown = true
	for i := 0; i < n; i++ {
		p := workload.PortCfg(i, incrVlans)
		state.Ports[p.Name] = p
		state.Learned = append(state.Learned, baseline.LearnedMac{
			Mac: uint64(0xaa0000000000 + i), Vlan: p.Tag, Port: p.Num,
		})
	}
	return state
}

// RunIncrVsRecompute runs T4 across network sizes.
func RunIncrVsRecompute(sizes []int, changes int) (*IncrResult, error) {
	res := &IncrResult{Changes: changes}
	for _, n := range sizes {
		// Incremental side: engine loaded with n ports + learned MACs.
		rt, err := incrNetwork(n, engine.Options{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for c := 0; c < changes; c++ {
			i := n + c
			if _, err := rt.Apply([]engine.Update{
				engine.Insert("Port", workload.PortRecord(i, incrVlans)),
			}); err != nil {
				return nil, err
			}
			if _, err := rt.Apply([]engine.Update{
				engine.Delete("Port", workload.PortRecord(i, incrVlans)),
			}); err != nil {
				return nil, err
			}
		}
		incrPer := time.Since(start) / time.Duration(2*changes)

		// Conventional side: recompute-everything-and-diff per change.
		state := recomputeNetwork(n)
		installed := state.DesiredEntries()
		start = time.Now()
		for c := 0; c < changes; c++ {
			p := workload.PortCfg(n+c, incrVlans)
			state.Ports[p.Name] = p
			next := state.DesiredEntries()
			baseline.Diff(installed, next)
			installed = next
			delete(state.Ports, p.Name)
			next = state.DesiredEntries()
			baseline.Diff(installed, next)
			installed = next
		}
		recomputePer := time.Since(start) / time.Duration(2*changes)

		res.Rows = append(res.Rows, IncrRow{
			Ports:          n,
			IncrPerChange:  incrPer,
			RecomputePerCh: recomputePer,
			Speedup:        float64(recomputePer) / float64(incrPer),
		})
	}
	return res, nil
}

// String renders the report.
func (r *IncrResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "T4 (§2.2): steady-state single changes, incremental vs recompute+diff (%d changes)\n", r.Changes)
	fmt.Fprintf(&sb, "  paper:    incremental processing gained 3x latency / 20x CPU in production\n")
	fmt.Fprintf(&sb, "  %8s  %14s  %16s  %8s\n", "ports", "incr/change", "recomp/change", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %8d  %14v  %16v  %7.1fx\n",
			row.Ports, row.IncrPerChange, row.RecomputePerCh, row.Speedup)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// T5 — §1 labeling: the two-rule reachability program under link churn
// versus full recomputation, plus the code-size comparison the paper
// motivates with.
// ---------------------------------------------------------------------

// LabelResult is the T5 report. Each of Rounds rounds loads a fresh
// runtime, times the incremental engine over the churn, then times full
// recomputation over the same churn; the per-change times are the medians
// of the rounds, the IQRs their spread.
type LabelResult struct {
	Topology      string        `json:"topology"`
	Nodes         int           `json:"nodes"`
	Edges         int           `json:"edges"`
	Churn         int           `json:"churn"`
	Rounds        int           `json:"rounds"`
	IncrPerChange time.Duration `json:"incr_per_change_ns"`
	IncrIQR       time.Duration `json:"incr_iqr_ns"`
	RecomputePC   time.Duration `json:"recompute_per_change_ns"`
	RecomputeIQR  time.Duration `json:"recompute_iqr_ns"`
	Speedup       float64       `json:"speedup"`
	RuleLines     int           `json:"rule_lines"`
	GoLines       int           `json:"go_lines"`
	FinalLabels   int           `json:"final_labels"`
}

// RunLabeling runs T5 on a sparse tree topology (the realistic network
// case, where a link event affects a small subtree), one round. edges is
// ignored for trees (n-1 edges).
func RunLabeling(nodes, edges, churn int) (*LabelResult, error) {
	return runLabelingOn("tree", workload.RandomTree(nodes, 42), churn, 1)
}

// labelDenseRounds is how many alternating rounds RunLabelingDense times.
const labelDenseRounds = 10

// RunLabelingDense runs T5's adversarial case: a dense cyclic graph,
// where a link removal takes a derivation from most labels but few lose
// their last proof. Its rounds alternate incremental and recompute, so
// the two medians come from the same run.
func RunLabelingDense(nodes, edges, churn int) (*LabelResult, error) {
	return runLabelingOn("dense-cyclic", workload.RandomGraph(nodes, edges, 42), churn, labelDenseRounds)
}

func runLabelingOn(topology string, g workload.Graph, churn, rounds int) (*LabelResult, error) {
	changes := g.EdgeChurn(churn, 43)
	prog, err := dl.Compile(workload.ReachabilityRules)
	if err != nil {
		return nil, err
	}
	seeds := max(len(g.Nodes)/20, 1)
	given := make(map[string][]string)
	var load []engine.Update
	for i := 0; i < seeds; i++ {
		label := fmt.Sprintf("L%d", i%4)
		given[g.Nodes[i]] = append(given[g.Nodes[i]], label)
		load = append(load, engine.Insert("GivenLabel", value.Record{
			value.String(g.Nodes[i]), value.String(label),
		}))
	}
	for _, e := range g.Edges {
		load = append(load, engine.Insert("Edge", value.Record{
			value.String(e[0]), value.String(e[1]),
		}))
	}
	var incr, recompute []float64
	var labels, recomputed int
	for round := 0; round < rounds; round++ {
		rt, err := prog.NewRuntime(engine.Options{})
		if err != nil {
			return nil, err
		}
		if _, err := rt.Apply(load); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, c := range changes {
			if _, err := rt.Apply([]engine.Update{workload.EdgeUpdate(c)}); err != nil {
				return nil, err
			}
		}
		incr = append(incr, float64(time.Since(start))/float64(churn))

		// Full recomputation side.
		live := make(map[[2]string]bool, len(g.Edges))
		for _, e := range g.Edges {
			live[e] = true
		}
		start = time.Now()
		var computed map[string]map[string]bool
		for _, c := range changes {
			if c.Add {
				live[c.Edge] = true
			} else {
				delete(live, c.Edge)
			}
			edgeList := make([][2]string, 0, len(live))
			for e := range live {
				edgeList = append(edgeList, e)
			}
			computed = baseline.ComputeLabels(given, edgeList)
		}
		recompute = append(recompute, float64(time.Since(start))/float64(churn))

		recs, err := rt.Contents("Label")
		if err != nil {
			return nil, err
		}
		labels, recomputed = len(recs), baseline.CountLabels(computed)
	}
	// Cross-check the final states agree.
	if labels != recomputed {
		return nil, fmt.Errorf("bench: incremental %d labels, recompute %d", labels, recomputed)
	}
	incrMed, incrIQR := medianIQR(incr)
	recMed, recIQR := medianIQR(recompute)
	return &LabelResult{
		Topology: topology,
		Nodes:    len(g.Nodes), Edges: len(g.Edges), Churn: churn, Rounds: rounds,
		IncrPerChange: time.Duration(incrMed), IncrIQR: time.Duration(incrIQR),
		RecomputePC: time.Duration(recMed), RecomputeIQR: time.Duration(recIQR),
		Speedup:     recMed / incrMed,
		RuleLines:   countNonEmpty(workload.ReachabilityRules),
		GoLines:     baseline.LabelsLoC(),
		FinalLabels: labels,
	}, nil
}

// medianIQR returns the median of vs and the distance between its first
// and third quartiles, by the rule benchmark/stats.go uses (Python's
// statistics.quantiles, exclusive method), so both harnesses report the
// same spread for the same draws.
func medianIQR(vs []float64) (median, iqr float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], 0
		}
		return 0, 0
	}
	// quartile interpolates the i-th of the 4 cut points.
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (s[(n-1)/2] + s[n/2]) / 2, quartile(3) - quartile(1)
}

func countNonEmpty(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		t := strings.TrimSpace(line)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return n
}

// String renders the report.
func (r *LabelResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "T5 (§1): reachability labeling (%s), %d nodes / %d edges / %d link events\n",
		r.Topology, r.Nodes, r.Edges, r.Churn)
	fmt.Fprintf(&sb, "  paper:    2-rule program vs tens of lines (full recompute) vs thousands (hand-incremental)\n")
	fmt.Fprintf(&sb, "  measured: %d program lines vs %d Go lines (full recompute)\n",
		r.RuleLines, r.GoLines)
	fmt.Fprintf(&sb, "            incremental %v/change vs recompute %v/change (%.1fx), %d labels\n",
		r.IncrPerChange, r.RecomputePC, r.Speedup, r.FinalLabels)
	if r.Rounds > 1 {
		fmt.Fprintf(&sb, "            medians of %d alternating rounds, IQR %v incremental, %v recompute\n",
			r.Rounds, r.IncrIQR, r.RecomputeIQR)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// F3 — Fig. 3: controller code size and flow-fragment count grow
// together as features accumulate; the declarative equivalent stays an
// order of magnitude smaller.
// ---------------------------------------------------------------------

// Fig3Row is one point of the growth curves.
type Fig3Row struct {
	Features       int
	ImperativeLoC  int
	FragmentSites  int
	DeclarativeLoC int
	Flows          int
}

// Fig3Result is the F3 report.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 computes the growth curves over the feature catalog.
func RunFig3() *Fig3Result {
	st := sampleFlowState()
	res := &Fig3Result{}
	for n := 1; n <= len(baseline.Catalog()); n++ {
		fc := baseline.NewFragmentController(n)
		res.Rows = append(res.Rows, Fig3Row{
			Features:       n,
			ImperativeLoC:  baseline.FeatureLoC(n),
			FragmentSites:  baseline.FragmentSites(n),
			DeclarativeLoC: baseline.DeclarativeLoC(n),
			Flows:          len(fc.Flows(st)),
		})
	}
	return res
}

func sampleFlowState() *baseline.FlowState {
	s := baseline.NewSNVSState()
	s.FloodUnknown = true
	for i := 0; i < 16; i++ {
		p := workload.PortCfg(i, 4)
		s.Ports[p.Name] = p
		s.Learned = append(s.Learned, baseline.LearnedMac{
			Mac: uint64(0xaa00 + i), Vlan: p.Tag, Port: p.Num,
		})
	}
	s.Mirrors = []baseline.MirrorCfg{{SrcPort: 1, DstPort: 16}}
	s.Acls = []baseline.AclCfg{{SrcMac: 0xdead, Deny: true}}
	s.StaticMacs = []baseline.StaticMacCfg{{Mac: 0xcc, Vlan: 10, Port: 2}}
	st := baseline.NewFlowState(s)
	st.ArpProxy[0x0a000001] = 0xbeef
	st.QosDSCP[1] = 46
	st.RateLimited[2] = true
	return st
}

// String renders the report.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	sb.WriteString("F3 (Fig. 3): feature sprawl — controller LoC and fragment count grow together\n")
	fmt.Fprintf(&sb, "  %9s  %15s  %15s  %16s  %8s\n",
		"features", "imperative LoC", "fragment sites", "declarative LoC", "flows")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %9d  %15d  %15d  %16d  %8d\n",
			row.Features, row.ImperativeLoC, row.FragmentSites, row.DeclarativeLoC, row.Flows)
	}
	return sb.String()
}
