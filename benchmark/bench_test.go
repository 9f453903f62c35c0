package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/p4"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 1, 200), streamHash(w, 1, 200), streamHash(w, 2, 200)
		if a != b {
			t.Errorf("%s: same seed, op-stream hashes %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same op stream (%x)", w.name, a)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{15, 50}, {40, 75}, {100, 90}, {250, 95}, {1000, 99}, {10000, 99.9}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(i)
		}
		pct, v := tail(s)
		if pct != tc.pct {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, pct, tc.pct)
		}
		if beyond := tc.n - 1 - int(v); tc.pct != 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported p%g", tc.n, beyond, pct)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: -5, End: 0}}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time %d, want 50 (children cover [10,50] and [90,100])", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
	tiled := []span{{Start: 0, End: 40}, {Start: 40, End: 70}, {Start: 70, End: 100}}
	if got := selfTime(parent, tiled); got != 0 {
		t.Errorf("self time under tiling children %d, want 0", got)
	}
}

func TestJudgeAppliesBound(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), verdictOK},
		{lower, steady(100), steady(115), verdictRegressed},
		{lower, steady(100), steady(50), verdictOK},
		{higher, steady(100), steady(85), verdictRegressed},
		{higher, steady(100), steady(130), verdictOK},
		{lower, steady(100), []float64{60, 100, 140}, verdictUnresolved},
	} {
		if got, _, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestOracleRejectsEntryRemovedBehindItsBack(t *testing.T) {
	w := findWorkload("churn_small").smoke()
	r, err := setup(w, newNetwork(3), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.st.close()
	r.oneRound(w.latOps, w.thrOps, true)
	if err := r.checkOracle(); err != nil {
		t.Fatalf("oracle on an untouched switch: %v", err)
	}
	victim := r.nw.ports[17]
	if err := r.st.sw.Runtime().DeleteEntry("in_vlan", []p4.FieldMatch{{Value: uint64(victim.Num)}}); err != nil {
		t.Fatal(err)
	}
	err = r.checkOracle()
	if err == nil || !strings.Contains(err.Error(), "in_vlan") {
		t.Fatalf("oracle accepted a switch missing in_vlan[%d]: %v", victim.Num, err)
	}
}

// TestSmoke runs every workload through the real code path (set-up,
// rounds, traced pass, probes, oracle) with tiny counts and no timing
// assertions.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(w.smoke(), runConfig{seed: 5, setups: 1, traced: true, scratch: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %s", res.Attempted, res.Failed, res.Error)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer %s missing", d.Name)
				}
			}
			// The workloads separate the layers.
			zero := func(prefix string, want bool) {
				for name, v := range res.PerLayer {
					if strings.HasPrefix(name, prefix) && name != "subscribe.evictions" && (v == 0) != want {
						t.Errorf("%s = %v, want zero: %v", name, v, want)
					}
				}
			}
			zero("subscribe.", w.subs == 0)
			zero("wal.", !w.wal)
			zero("ovsdb.", w.learn)
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the metric and
// workload tables in this package naming the same things.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(bj.EndToEnd), len(endToEnd), len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
}
