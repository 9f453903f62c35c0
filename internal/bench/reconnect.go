package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
)

// ---------------------------------------------------------------------
// Reconnect recovery — time to reconverge after a switch restart. The
// stack runs with resilient clients; the switch is killed and restarted
// with empty tables (as a rebooted device would be), and the row records
// how long until the controller's resync has repopulated every entry.
// The clock starts when the restarted switch is listening again, so a
// row measures detection + redial + diff + re-push, not the outage.
// ---------------------------------------------------------------------

// ReconnectRow is the recovery measurement at one device-state size.
type ReconnectRow struct {
	// Ports is the configured access-port count; the device carries one
	// in_vlan entry per port plus the VLAN's flood groups.
	Ports    int `json:"ports"`
	Restarts int `json:"restarts"`
	// P50/Max are time-to-reconverge percentiles over the restarts: from
	// the restarted (empty) switch accepting connections until its
	// in_vlan table again holds every desired entry.
	P50 time.Duration `json:"reconverge_p50_ns"`
	Max time.Duration `json:"reconverge_max_ns"`
}

// ReconnectResult is the recovery report.
type ReconnectResult struct {
	Restarts int            `json:"restarts"`
	Rows     []ReconnectRow `json:"rows"`
}

// RunReconnect boots the resilient stack once per port count, seeds the
// database, then kills and restarts the switch `restarts` times,
// measuring time-to-reconverge for each restart.
func RunReconnect(portCounts []int, restarts int) (*ReconnectResult, error) {
	if len(portCounts) == 0 {
		portCounts = []int{50, 250, 1000}
	}
	if restarts <= 0 {
		restarts = 5
	}
	res := &ReconnectResult{Restarts: restarts}
	for _, ports := range portCounts {
		row, err := runReconnectSize(ports, restarts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func runReconnectSize(ports, restarts int) (*ReconnectRow, error) {
	s, err := deploy.Start(SnvsSpec(obs.NewObserver()))
	if err != nil {
		return nil, err
	}
	defer s.Close()

	ops := []ovsdb.Operation{ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	})}
	for i := 0; i < ports; i++ {
		ops = append(ops, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name":      fmt.Sprintf("p%d", i),
			"port_num":  int64(i + 1),
			"vlan_mode": "access",
			"tag":       int64(10),
		}))
	}
	if err := s.Transact(ops...); err != nil {
		return nil, fmt.Errorf("bench: reconnect seed: %w", err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", ports); err != nil {
		return nil, err
	}

	var lats []time.Duration
	for i := 0; i < restarts; i++ {
		if err := s.Restart("snvs0"); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := s.WaitEntries("snvs0", "in_vlan", ports); err != nil {
			return nil, fmt.Errorf("bench: reconnect restart %d: %w", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return &ReconnectRow{
		Ports:    ports,
		Restarts: restarts,
		P50:      percentileDur(lats, 50),
		Max:      lats[len(lats)-1],
	}, nil
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
func (r *ReconnectResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Reconnect recovery: time to reconverge after a switch restart (%d restarts per size)\n", r.Restarts)
	fmt.Fprintf(&sb, "  %-8s  %12s  %12s\n", "ports", "p50", "max")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8d  %12v  %12v\n", row.Ports, row.P50, row.Max)
	}
	return sb.String()
}
