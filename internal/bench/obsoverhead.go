package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/ovsdb"
)

// ---------------------------------------------------------------------
// Flight-recorder overhead — the same full-stack insert/delete workload
// on observed controllers (engine statistics, per-rule profiling,
// provenance and txn-carrying switch writes all on) with the event ring
// disabled, with events on, and with events plus the metrics-history
// sampler. Overhead is computed against the "metrics" row (observer minus
// recorder), which isolates what each layer adds on top of the metrics,
// tracing and profiling every observed controller carries: the
// events-only delta is the always-on acceptance budget. Each
// transaction's apply+push latency is read from the controller's own
// "delta" and "push" trace stages, so the experiment has no timer of its
// own — and an unobserved row cannot be read at all.
// ---------------------------------------------------------------------

// obsOverheadBaseMode is the row overheads are computed against.
const obsOverheadBaseMode = "metrics"

// ObsOverheadRow is one recorder configuration's measurement.
type ObsOverheadRow struct {
	Mode string `json:"mode"` // "metrics", "events", "events+history"
	Txns int    `json:"txns"`
	// P50/P99 are apply+push latency percentiles (engine evaluation plus
	// data-plane push, per transaction, from the controller's trace).
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// P50OverheadPct is this row's p50 relative to the "metrics"
	// baseline (observer on, event ring disabled), as a percentage
	// increase.
	P50OverheadPct float64 `json:"p50_overhead_pct"`
	// Events is the flight recorder's total appended-event count at the
	// end of the run (0 when the ring is off).
	Events uint64 `json:"events"`
}

// ObsOverheadResult is the recorder-overhead report.
type ObsOverheadResult struct {
	Txns int              `json:"txns"`
	Rows []ObsOverheadRow `json:"rows"`
}

// obsOverheadRounds is how many interleaved chunks the measured pass is
// split into per mode.
const obsOverheadRounds = 10

// obsModeRun is one recorder configuration's live stack during the
// interleaved run.
type obsModeRun struct {
	mode string
	o    *obs.Observer
	s    *Stack
	sent int
	// read is the last txn ID whose latency has been read; latencies
	// holds the measured pass's samples.
	read      uint64
	latencies []time.Duration
}

// RunObsOverhead boots the full stack for every recorder mode up front,
// runs one discarded warmup pass per mode, then interleaves the measured
// transactions round-robin across the modes in small chunks. The
// interleaving is the noise-floor fix: a sequential mode-after-mode run
// lets clock, thermal, and allocator drift show up as phantom overhead;
// round-robin chunks spread that drift evenly across all modes. The
// insert/delete alternation keeps table sizes constant, so every mode
// measures the same steady state.
func RunObsOverhead(txns int) (*ObsOverheadResult, error) {
	if txns <= 0 {
		txns = 300
	}
	// Per-mode chunk: even (to keep the alternation balanced) and at
	// least 2, so txns rounds up to chunk*obsOverheadRounds. A chunk's
	// traces must all still be in the tracer's ring when it is read.
	chunk := txns / obsOverheadRounds
	if chunk%2 != 0 {
		chunk++
	}
	if chunk < 2 {
		chunk = 2
	}
	if chunk > obs.DefaultTraceCapacity {
		return nil, fmt.Errorf("bench: obs-overhead: %d txns per round exceed the %d-trace ring",
			chunk, obs.DefaultTraceCapacity)
	}
	txns = chunk * obsOverheadRounds
	res := &ObsOverheadResult{Txns: txns}
	var runs []*obsModeRun
	defer func() {
		for _, m := range runs {
			m.o.StopHistory()
			m.s.Close()
		}
	}()
	for _, mode := range []string{obsOverheadBaseMode, "events", "events+history"} {
		var cfg obs.ObserverConfig
		if mode == obsOverheadBaseMode {
			cfg.EventCapacity = -1
		}
		o := obs.NewObserverWith(cfg)
		s, err := StartStackObs(o)
		if err != nil {
			return nil, err
		}
		m := &obsModeRun{mode: mode, o: o, s: s}
		runs = append(runs, m)
		if mode == "events+history" {
			o.StartHistory(10 * time.Millisecond)
		}
		if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
			"name": "snvs0", "flood_unknown": true,
		}), ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "warm", "port_num": int64(999), "vlan_mode": "access", "tag": int64(10),
		})); err != nil {
			return nil, err
		}
		if err := s.WaitEntries("in_vlan", 1, 10*time.Second); err != nil {
			return nil, err
		}
		m.read = s.DB.LastTxnID()
	}
	// Warmup pass: a full per-mode transaction count, read and discarded
	// in ring-sized chunks. Warms the allocator, connection buffers, table
	// state, and the pools the measured pass exercises.
	for _, m := range runs {
		for n := 0; n < txns; n += chunk {
			if err := driveObsChunk(m, chunk); err != nil {
				return nil, err
			}
			if err := m.readLatencies(false); err != nil {
				return nil, err
			}
		}
	}
	// Measured pass: interleaved chunks, with the within-round order
	// rotated each round so any process-wide disturbance that recurs at
	// the round period (GC cycles chief among them) is spread across all
	// modes instead of always billing the same one. The explicit GC
	// before each chunk keeps one mode's garbage from triggering a
	// collection pause inside the next mode's measurement window.
	for r := 0; r < obsOverheadRounds; r++ {
		for i := range runs {
			m := runs[(r+i)%len(runs)]
			runtime.GC()
			if err := driveObsChunk(m, chunk); err != nil {
				return nil, err
			}
			if err := m.readLatencies(true); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range runs {
		lats := m.latencies
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.Rows = append(res.Rows, ObsOverheadRow{
			Mode:   m.mode,
			Txns:   len(lats),
			P50:    percentileDur(lats, 50),
			P99:    percentileDur(lats, 99),
			Events: m.o.Rec().Total(),
		})
	}
	if base := float64(res.Rows[0].P50); base > 0 {
		for i := range res.Rows {
			res.Rows[i].P50OverheadPct = (float64(res.Rows[i].P50)/base - 1) * 100
		}
	}
	return res, nil
}

// driveObsChunk submits n alternating insert/delete transactions to one
// mode's stack, continuing the mode's alternation parity.
func driveObsChunk(m *obsModeRun, n int) error {
	for i := 0; i < n; i++ {
		var err error
		if m.sent%2 == 0 {
			err = m.s.Transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
				"name": "bench-p", "port_num": int64(7), "vlan_mode": "access", "tag": int64(10),
			}))
		} else {
			err = m.s.Transact(ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "bench-p")))
		}
		if err != nil {
			return err
		}
		m.sent++
	}
	return nil
}

// readLatencies waits until the mode's last commit has been pushed, so
// chunk latencies never bleed into the next mode's measurement window,
// then reads every commit since the previous read from the tracer: its
// apply+push latency is its delta stage plus its push stage. keep says
// whether the samples join the measured pass.
func (m *obsModeRun) readLatencies(keep bool) error {
	last := m.s.DB.LastTxnID()
	tr := m.o.Tr()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if t, ok := tr.Get(last); ok && len(stageDurations(t)) == 2 {
			break
		}
		if err := m.s.Ctrl.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: obs-overhead %s: txn %d never pushed", m.mode, last)
		}
		time.Sleep(time.Millisecond)
	}
	for id := m.read + 1; id <= last; id++ {
		t, _ := tr.Get(id)
		d := stageDurations(t)
		if len(d) != 2 {
			return fmt.Errorf("bench: obs-overhead %s: txn %d has %d of its delta/push stages", m.mode, id, len(d))
		}
		if keep {
			m.latencies = append(m.latencies, d[0]+d[1])
		}
	}
	m.read = last
	return nil
}

// stageDurations returns the durations of a trace's delta and push
// stages (the controller records each once per uncoalesced commit).
func stageDurations(t obs.Trace) []time.Duration {
	var out []time.Duration
	for _, st := range t.Stages {
		if st.Name == "delta" || st.Name == "push" {
			out = append(out, st.End.Sub(st.Start))
		}
	}
	return out
}

// percentileDur returns the p-th percentile of sorted latencies.
func percentileDur(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i]
}

// String renders the report.
func (r *ObsOverheadResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Flight-recorder overhead: %d txns per mode (apply+push latency, vs %s)\n",
		r.Txns, obsOverheadBaseMode)
	fmt.Fprintf(&sb, "  %-14s  %12s  %12s  %9s  %8s\n", "mode", "p50", "p99", "overhead", "events")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-14s  %12v  %12v  %8.1f%%  %8d\n",
			row.Mode, row.P50, row.P99, row.P50OverheadPct, row.Events)
	}
	return sb.String()
}
