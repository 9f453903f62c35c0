package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Provenance overhead — Options.Collect off vs on across the snvs
// control-plane program. The off row is the unobserved engine (the hot
// path must stay allocation-free; see TestArrangementProbeZeroAlloc); the
// on row prices what an observed controller's engine pays for
// /debug/explain together with the statistics and per-rule profiling
// that come with it.
// ---------------------------------------------------------------------

// ProvenanceRow is one configuration's measurement.
type ProvenanceRow struct {
	Provenance bool          `json:"provenance"`
	PerBatch   time.Duration `json:"per_batch_ns"`
	// OverheadPct is this row's per-batch latency relative to the off
	// baseline, as a percentage increase.
	OverheadPct float64 `json:"overhead_pct"`
	// Facts/Evictions are the engine store's final statistics (zero when
	// provenance is off).
	Facts     int    `json:"facts"`
	Evictions uint64 `json:"evictions"`
}

// ProvenanceResult is the provenance-overhead report.
type ProvenanceResult struct {
	Ports  int             `json:"ports"`
	Batch  int             `json:"batch"`
	Rounds int             `json:"rounds"`
	Rows   []ProvenanceRow `json:"rows"`
}

// provWarmupRounds are discarded insert+delete rounds run against each
// runtime before measurement starts, so pool and allocator warmup never
// lands in a measured round.
const provWarmupRounds = 3

// RunProvenance loads two snvs engines with `ports` ports and learned
// MACs — provenance collection off and on — then times `rounds`
// insert+delete batches of `batch` ports against each. Rounds are
// interleaved between the two runtimes (off, on, off, on, ...) after a
// shared warmup: a sequential off-then-on run lets clock and allocator
// drift masquerade as overhead, which is exactly what the off row
// measured against itself showed before interleaving.
func RunProvenance(ports, batch, rounds int) (*ProvenanceResult, error) {
	const nVlans = 10
	res := &ProvenanceResult{Ports: ports, Batch: batch, Rounds: rounds}
	type modeRun struct {
		collect bool
		rt      *engine.Runtime
		rounds  []time.Duration
	}
	modes := []*modeRun{{collect: false}, {collect: true}}
	for _, m := range modes {
		rt, err := SnvsEngineOpts(engine.Options{Collect: m.collect})
		if err != nil {
			return nil, err
		}
		var load []engine.Update
		load = append(load, engine.Insert("SwitchCfg", value.Record{
			value.String("u-cfg"), value.Bool(true), value.String("snvs0"),
		}))
		for i := 0; i < ports; i++ {
			load = append(load, engine.Insert("Port", workload.PortRecord(i, nVlans)))
			load = append(load, engine.Insert("Learn", workload.LearnedRecord(i, i, nVlans)))
		}
		if _, err := rt.Apply(load); err != nil {
			return nil, err
		}
		m.rt = rt
	}
	oneRound := func(m *modeRun, measured bool) error {
		ups := make([]engine.Update, 0, batch)
		for j := 0; j < batch; j++ {
			ups = append(ups, engine.Insert("Port", workload.PortRecord(ports+j, nVlans)))
		}
		start := time.Now()
		if _, err := m.rt.Apply(ups); err != nil {
			return err
		}
		for j := range ups {
			ups[j].Insert = false
		}
		if _, err := m.rt.Apply(ups); err != nil {
			return err
		}
		if measured {
			m.rounds = append(m.rounds, time.Since(start))
		}
		return nil
	}
	runtime.GC()
	for r := 0; r < provWarmupRounds+rounds; r++ {
		for _, m := range modes {
			if err := oneRound(m, r >= provWarmupRounds); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range modes {
		st := m.rt.ProvenanceStats()
		// Median round: a GC cycle landing inside one mode's round would
		// dominate a mean at these microsecond scales; the median prices
		// the steady-state round both modes actually run.
		sort.Slice(m.rounds, func(i, j int) bool { return m.rounds[i] < m.rounds[j] })
		res.Rows = append(res.Rows, ProvenanceRow{
			Provenance: m.collect,
			PerBatch:   m.rounds[len(m.rounds)/2] / 2,
			Facts:      st.Facts,
			Evictions:  st.Evictions,
		})
	}
	if base := float64(res.Rows[0].PerBatch); base > 0 {
		for i := range res.Rows {
			res.Rows[i].OverheadPct = (float64(res.Rows[i].PerBatch)/base - 1) * 100
		}
	}
	return res, nil
}

// String renders the report.
func (r *ProvenanceResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Provenance overhead: %d ports loaded, %d-port batches x %d rounds\n",
		r.Ports, r.Batch, r.Rounds)
	fmt.Fprintf(&sb, "  %10s  %14s  %9s  %8s  %9s\n", "provenance", "per batch", "overhead", "facts", "evictions")
	for _, row := range r.Rows {
		state := "off"
		if row.Provenance {
			state = "on"
		}
		fmt.Fprintf(&sb, "  %10s  %14v  %8.1f%%  %8d  %9d\n",
			state, row.PerBatch, row.OverheadPct, row.Facts, row.Evictions)
	}
	return sb.String()
}
