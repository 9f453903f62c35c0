package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/deploy"
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
// own — and an unobserved row cannot be read at all. Each step of a
// commit is a trace stage and no event, so these commits append nothing
// to the ring: the "events" row prices an allocated, idle ring.
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
	// P50OverheadPct is the median, over the interleaved rounds, of this
	// mode's p50 relative to the "metrics" baseline's p50 in the same
	// round (observer on, event ring disabled), as a percentage increase;
	// P50OverheadIQRPct is the distance between those per-round
	// overheads' quartiles, the noise bound the median is read against.
	P50OverheadPct    float64 `json:"p50_overhead_pct"`
	P50OverheadIQRPct float64 `json:"p50_overhead_iqr_pct"`
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
	s    *deploy.Stack
	sent int
	// read is the last txn ID whose latency has been read; latencies
	// holds the measured pass's samples and overheads its per-round p50
	// overheads over the baseline mode.
	read      uint64
	latencies []time.Duration
	overheads []float64
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
		s, err := deploy.Start(SnvsSpec(o))
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
		if err := s.WaitEntries("snvs0", "in_vlan", 1); err != nil {
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
			if _, err := m.readLatencies(); err != nil {
				return nil, err
			}
		}
	}
	// Measured pass: interleaved chunks, with the within-round order
	// rotated each round so any process-wide disturbance that recurs at
	// the round period (GC cycles chief among them) is spread across all
	// modes instead of always billing the same one. The explicit GC
	// before each chunk keeps one mode's garbage from triggering a
	// collection pause inside the next mode's measurement window. Each
	// round pairs every mode with the baseline's chunk of the same round,
	// so drift between rounds cancels out of that round's overhead.
	roundP50 := make([]time.Duration, len(runs))
	for r := 0; r < obsOverheadRounds; r++ {
		for i := range runs {
			j := (r + i) % len(runs)
			m := runs[j]
			runtime.GC()
			if err := driveObsChunk(m, chunk); err != nil {
				return nil, err
			}
			lats, err := m.readLatencies()
			if err != nil {
				return nil, err
			}
			m.latencies = append(m.latencies, lats...)
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			roundP50[j] = percentileDur(lats, 50)
		}
		for j, m := range runs {
			m.overheads = append(m.overheads, (float64(roundP50[j])/float64(roundP50[0])-1)*100)
		}
	}
	for _, m := range runs {
		lats := m.latencies
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		med, iqr := medianIQR(m.overheads)
		res.Rows = append(res.Rows, ObsOverheadRow{
			Mode:              m.mode,
			Txns:              len(lats),
			P50:               percentileDur(lats, 50),
			P99:               percentileDur(lats, 99),
			P50OverheadPct:    med,
			P50OverheadIQRPct: iqr,
			Events:            m.o.Rec().Total(),
		})
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
// then returns the latency of every commit since the previous read from
// the tracer: its delta stage plus its push stage.
func (m *obsModeRun) readLatencies() ([]time.Duration, error) {
	last := m.s.DB.LastTxnID()
	tr := m.o.Tr()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if t, ok := tr.Get(last); ok && len(stageDurations(t)) == 2 {
			break
		}
		if err := m.s.Ctrl.Err(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: obs-overhead %s: txn %d never pushed", m.mode, last)
		}
		time.Sleep(time.Millisecond)
	}
	lats := make([]time.Duration, 0, last-m.read)
	for id := m.read + 1; id <= last; id++ {
		t, _ := tr.Get(id)
		d := stageDurations(t)
		if len(d) != 2 {
			return nil, fmt.Errorf("bench: obs-overhead %s: txn %d has %d of its delta/push stages", m.mode, id, len(d))
		}
		lats = append(lats, d[0]+d[1])
	}
	m.read = last
	return lats, nil
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

// String renders the report.
func (r *ObsOverheadResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Flight-recorder overhead: %d txns per mode (apply+push latency, vs %s; overhead is the median over %d interleaved rounds)\n",
		r.Txns, obsOverheadBaseMode, obsOverheadRounds)
	fmt.Fprintf(&sb, "  %-14s  %12s  %12s  %9s  %8s  %8s\n", "mode", "p50", "p99", "overhead", "IQR", "events")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-14s  %12v  %12v  %8.1f%%  %6.1fpp  %8d\n",
			row.Mode, row.P50, row.P99, row.P50OverheadPct, row.P50OverheadIQRPct, row.Events)
	}
	return sb.String()
}
