package nerpa

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// TestKillRestartEndToEnd bounces both servers under a live controller:
// the OVSDB server and the switch are killed mid-workload, the database
// is mutated while the controller is disconnected, and both are then
// restarted (the switch with empty tables, as a rebooted device would
// be). The controller must reconnect on its own, resynchronize both
// planes, and converge the switch to the full desired state — including
// the change it never saw — while /readyz tracks degraded → ok.
func TestKillRestartEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	obsSrv := httptest.NewServer(o.Handler())
	defer obsSrv.Close()

	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	s, err := deploy.Start(deploy.Spec{Schema: schema, Rules: snvs.Rules, Obs: o,
		Classes: []deploy.Class{{Program: snvs.Pipeline(), IDs: []string{"sw0"}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p4rtAddr := s.Addr("sw0")

	transact := func(ops ...ovsdb.Operation) {
		t.Helper()
		for i, r := range s.DB.Transact(ops) {
			if r.Error != "" {
				t.Fatalf("op %d: %s (%s)", i, r.Error, r.Details)
			}
		}
	}
	transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "sw0", "flood_unknown": true}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
	)
	waitVlanPorts(t, p4rtAddr, 1)
	waitBody(t, obsSrv.URL+"/readyz", func(status int, _ string) bool { return status == 200 })

	// --- Outage: kill both servers, then change the network while the
	// controller cannot see or reach anything.
	s.Kill(deploy.DB)
	s.Kill("sw0")
	waitBody(t, obsSrv.URL+"/readyz", func(status int, body string) bool {
		return status == 503 && strings.Contains(body, "degraded")
	})
	transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
	}))

	// --- Restart both servers on the same addresses. The switch comes
	// back empty: a reboot wiped its tables.
	if err := s.Restart(deploy.DB); err != nil {
		t.Fatal(err)
	}
	if err := s.Restart("sw0"); err != nil {
		t.Fatal(err)
	}

	// Convergence: the switch holds entries for BOTH ports — p1 from the
	// resync replay, p2 from the OVSDB monitor's gap replay (the restarted
	// server keeps its database and gap window) — and /readyz is ok.
	waitVlanPorts(t, p4rtAddr, 2)
	waitBody(t, obsSrv.URL+"/readyz", func(status int, _ string) bool { return status == 200 })

	// The diff is now empty: desired state and device agree exactly.
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	cl, err := p4rt.Dial(p4rtAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	entries, err := cl.ReadTable("in_vlan")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("in_vlan has %d entries after recovery, want 2: %v", len(entries), entries)
	}

	// Every plane counted its recovery.
	waitBody(t, obsSrv.URL+"/metrics", func(_ int, body string) bool {
		return hasCounterAtLeast(body, "ovsdb_reconnects_total", 1) &&
			hasCounterAtLeast(body, `p4rt_reconnects_total{target="sw0"}`, 1) &&
			hasCounterAtLeast(body, "core_resyncs_total", 1)
	})
}

// waitVlanPorts polls the switch's control API until in_vlan holds n
// entries (dialing fresh each attempt: the server may be down).
func waitVlanPorts(t *testing.T, addr string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, err := p4rt.Dial(addr); err == nil {
			entries, err := c.ReadTable("in_vlan")
			c.Close()
			if err == nil && len(entries) == n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("in_vlan never reached %d entries", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitBody polls the URL until ok accepts the response.
func waitBody(t *testing.T, url string, ok func(status int, body string) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var body string
		var status int
		if resp, err := http.Get(url); err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body, status = string(b), resp.StatusCode
		}
		if ok(status, body) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never matched; last status %d body:\n%s", url, status, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// hasCounterAtLeast reports whether the Prometheus dump has the series
// with a value >= want (integer-rendered counters).
func hasCounterAtLeast(body, series string, want int) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(strings.TrimPrefix(line, series+" "), &v); err == nil && int(v) >= want {
			return true
		}
	}
	return false
}
