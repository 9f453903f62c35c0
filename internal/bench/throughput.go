package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ovsdb"
)

// ---------------------------------------------------------------------
// Sustained throughput — many concurrent management-plane clients
// committing small transactions as fast as the stack absorbs them,
// through ovsdb commit → monitor delivery → coalesced engine applies →
// P4Runtime pushes into the behavioral switch. Two rows:
//
//   wire    every hop over real TCP JSON-RPC. Bounded by the socket
//           codec (JSON encode/decode plus syscalls per commit), so it
//           measures the deployment ceiling of one boxed controller.
//   direct  commits and monitor delivery in-process against the same
//           real ovsdb.Database; engine, P4Runtime client, and switch
//           unchanged (pushes still cross TCP). Measures what the
//           control-plane core sustains once the wire codec is off the
//           critical path — the row the >=100k txn/s target applies
//           to, and the one that shows what monitor coalescing buys.
//
// The headline number is end-to-end transactions per second: committed,
// applied, and pushed. Commit latency percentiles and process-wide
// allocations per transaction ride along.
// ---------------------------------------------------------------------

// ThroughputRow is one transport mode's measurement.
type ThroughputRow struct {
	Mode string `json:"mode"` // "wire" or "direct"
	// Txns is the measured transaction count (excludes warmup).
	Txns int `json:"txns"`
	// Seconds spans first commit to last data-plane push.
	Seconds    float64 `json:"seconds"`
	TxnsPerSec float64 `json:"txns_per_sec"`
	// CommitP50/P99 are client-observed commit round-trip latencies.
	CommitP50 time.Duration `json:"commit_p50_ns"`
	CommitP99 time.Duration `json:"commit_p99_ns"`
	// AllocsPerTxn is process-wide heap allocations per measured
	// transaction (all planes: server, controller, switch, clients).
	AllocsPerTxn float64 `json:"allocs_per_txn"`
}

// ThroughputResult is the sustained-throughput report.
type ThroughputResult struct {
	Workers       int             `json:"workers"`
	TxnsPerWorker int             `json:"txns_per_worker"`
	Rows          []ThroughputRow `json:"rows"`
}

// RunThroughput drives workers*txnsPerWorker transactions through the
// full stack with monitor coalescing enabled, once per transport mode,
// and reports aggregate throughput. Each worker owns one commit path
// and one port name, alternating insert/delete so table sizes stay
// constant.
func RunThroughput(workers, txnsPerWorker int) (*ThroughputResult, error) {
	if workers <= 0 {
		workers = 16
	}
	if txnsPerWorker <= 0 {
		txnsPerWorker = 2000
	}
	res := &ThroughputResult{Workers: workers, TxnsPerWorker: txnsPerWorker}
	for _, mode := range []string{"wire", "direct"} {
		row, err := runThroughputMode(mode, workers, txnsPerWorker)
		if err != nil {
			return nil, fmt.Errorf("throughput %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func runThroughputMode(mode string, workers, txnsPerWorker int) (*ThroughputRow, error) {
	s, err := StartStackConfig(StackConfig{
		DirectMP: mode == "direct",
		// Large merge budget, zero window: drain whatever is queued
		// without ever delaying a lone commit.
		CoalesceMaxTxns:    4096,
		CoalesceMaxUpdates: 8192,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}), ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "warm", "port_num": int64(9999), "vlan_mode": "access", "tag": int64(10),
	})); err != nil {
		return nil, err
	}
	if err := s.WaitEntries("in_vlan", 1, 10*time.Second); err != nil {
		return nil, err
	}

	// commit is the per-worker transaction path under test.
	var commits []func(ops ...ovsdb.Operation) error
	if mode == "wire" {
		for w := 0; w < workers; w++ {
			c, err := ovsdb.Dial(s.OVSDBAddr)
			if err != nil {
				return nil, err
			}
			defer c.Close()
			commits = append(commits, func(ops ...ovsdb.Operation) error {
				_, err := c.TransactErr("snvs", ops...)
				return err
			})
		}
	} else {
		direct := func(ops ...ovsdb.Operation) error {
			for _, r := range s.DB.Transact(ops) {
				if r.Error != "" {
					return fmt.Errorf("ovsdb: %s: %s", r.Error, r.Details)
				}
			}
			return nil
		}
		for w := 0; w < workers; w++ {
			commits = append(commits, direct)
		}
	}

	// drive runs n alternating insert/delete commits on worker w's own
	// port, recording commit round-trip latencies when lats != nil.
	drive := func(w, n int, lats *[]time.Duration) error {
		commit := commits[w]
		name := fmt.Sprintf("tp-%d", w)
		ins := ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": name, "port_num": int64(1000 + w), "vlan_mode": "access", "tag": int64(10),
		})
		del := ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", name))
		for i := 0; i < n; i++ {
			op := ins
			if i%2 == 1 {
				op = del
			}
			start := time.Now()
			if err := commit(op); err != nil {
				return err
			}
			if lats != nil {
				*lats = append(*lats, time.Since(start))
			}
		}
		return nil
	}
	runAll := func(n int, lats [][]time.Duration) error {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var lp *[]time.Duration
				if lats != nil {
					lp = &lats[w]
				}
				errs[w] = drive(w, n, lp)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Warmup: a fraction of the measured load, discarded. Even count
	// keeps the insert/delete parity aligned for the measured pass.
	warm := txnsPerWorker / 10
	if warm%2 == 1 {
		warm++
	}
	if warm < 10 {
		warm = 10
	}
	if err := runAll(warm, nil); err != nil {
		return nil, err
	}
	if err := s.Drain(60 * time.Second); err != nil {
		return nil, fmt.Errorf("warmup pass: %w", err)
	}

	// Median of three measured rounds: a GC cycle or scheduling stall
	// landing inside one ~sub-second round moves its txn/s by ±15% on a
	// single-core box, so one draw is not a sustained number. Each round
	// is a full load of txnsPerWorker per worker; the reported row is the
	// round with the median aggregate txn/s.
	const measuredRounds = 3
	var best *ThroughputRow
	rows := make([]*ThroughputRow, 0, measuredRounds)
	for r := 0; r < measuredRounds; r++ {
		runtime.GC()
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)

		lats := make([][]time.Duration, workers)
		start := time.Now()
		if err := runAll(txnsPerWorker, lats); err != nil {
			return nil, err
		}
		if err := s.Drain(60 * time.Second); err != nil {
			return nil, fmt.Errorf("measure pass: %w", err)
		}
		elapsed := time.Since(start)

		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)

		all := make([]time.Duration, 0, workers*txnsPerWorker)
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		total := len(all)
		rows = append(rows, &ThroughputRow{
			Mode:         mode,
			Txns:         total,
			Seconds:      elapsed.Seconds(),
			TxnsPerSec:   float64(total) / elapsed.Seconds(),
			CommitP50:    percentileDur(all, 50),
			CommitP99:    percentileDur(all, 99),
			AllocsPerTxn: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(total),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TxnsPerSec < rows[j].TxnsPerSec })
	best = rows[len(rows)/2]
	return best, nil
}

// String renders the report.
func (r *ThroughputResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sustained throughput: %d workers × %d txns end-to-end (ovsdb→engine→p4rt→switch)\n",
		r.Workers, r.TxnsPerWorker)
	fmt.Fprintf(&sb, "  %-7s  %12s  %12s  %12s  %10s\n",
		"mode", "txn/s", "commit p50", "commit p99", "allocs/txn")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-7s  %12.0f  %12v  %12v  %10.1f\n",
			row.Mode, row.TxnsPerSec, row.CommitP50, row.CommitP99, row.AllocsPerTxn)
	}
	return sb.String()
}
