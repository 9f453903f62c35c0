package nerpa

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ovsdb"
)

// TestFleetEndToEnd builds all four binaries, runs the three planes as
// separate processes with nerpa-top polling their obs endpoints, and
// checks the aggregator's acceptance surface: a stitched cross-process
// timeline ending in switch-applied, nonzero fleet convergence
// percentiles on /fleet/metrics, and stale-member detection within one
// poll interval of killing a process.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"ovsdb-server", "snvs-switch", "nerpa-controller", "nerpa-top"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	addrs := freeAddrs(t, 6)
	ovsdbAddr, p4rtAddr, ovsdbObs, switchObs, ctrlObs, topAddr := addrs[0], addrs[1], addrs[2], addrs[3], addrs[4], addrs[5]

	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	start("ovsdb-server", "-addr", ovsdbAddr, "-obs-addr", ovsdbObs, "-obs-instance", "db0")
	swCmd := start("snvs-switch", "-p4rt", p4rtAddr, "-obs-addr", switchObs, "-obs-instance", "sw0")
	waitDialable(t, ovsdbAddr)
	waitDialable(t, p4rtAddr)
	start("nerpa-controller", "-ovsdb", ovsdbAddr, "-p4rt", p4rtAddr, "-db", "snvs",
		"-obs-addr", ctrlObs, "-obs-instance", "ctl0")
	const pollInterval = 300 * time.Millisecond
	targets := fmt.Sprintf("db0=%s,ctl0=%s,sw0=%s", ovsdbObs, ctrlObs, switchObs)
	start("nerpa-top", "-targets", targets, "-addr", topAddr, "-interval", pollInterval.String())
	waitDialable(t, topAddr)

	// Configure through the management plane.
	dbc, err := ovsdb.Dial(ovsdbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer dbc.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err = dbc.TransactErr("snvs",
			ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
				"name": "snvs0", "flood_unknown": true,
			}),
			ovsdb.OpInsert("Port", map[string]ovsdb.Value{
				"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
			}),
		)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transact never succeeded: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The aggregator stitches the per-process trace fragments into one
	// cross-process timeline ending at the data plane.
	type stitched struct {
		TxnID    uint64   `json:"txn_id"`
		Complete bool     `json:"complete"`
		Missing  []string `json:"missing"`
		Members  []string `json:"members"`
		Stages   []struct {
			Name   string `json:"name"`
			Member string `json:"member"`
			Plane  string `json:"plane"`
		} `json:"stages"`
		ConvergenceNs int64 `json:"convergence_ns"`
	}
	var full stitched
	for {
		var dump struct {
			Traces []stitched `json:"traces"`
		}
		body := fetchURL(t, "http://"+topAddr+"/fleet/traces", deadline)
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Fatalf("/fleet/traces is not JSON: %v\n%s", err, body)
		}
		done := false
		for _, tr := range dump.Traces {
			if tr.Complete {
				full, done = tr, true
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete stitched trace appeared: %+v", dump)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The single-txn form returns the same timeline, ending in the
	// data-plane apply, attributed across all three processes.
	var tr stitched
	body := fetchURL(t, fmt.Sprintf("http://%s/fleet/traces?txn=%d", topAddr, full.TxnID), deadline)
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/fleet/traces?txn= is not JSON: %v\n%s", err, body)
	}
	if !tr.Complete || len(tr.Stages) < 5 {
		t.Fatalf("stitched trace incomplete: %s", body)
	}
	if got := tr.Stages[len(tr.Stages)-1]; got.Name != "switch-applied" || got.Member != "sw0" {
		t.Fatalf("timeline does not end in switch-applied@sw0: %s", body)
	}
	if strings.Join(tr.Members, ",") != "ctl0,db0,sw0" {
		t.Fatalf("members = %v, want all three processes", tr.Members)
	}
	if tr.ConvergenceNs <= 0 {
		t.Fatalf("convergence_ns = %d, want > 0", tr.ConvergenceNs)
	}

	// Fleet metrics export nonzero convergence percentiles.
	metrics := fetchURL(t, "http://"+topAddr+"/fleet/metrics", deadline)
	for _, series := range []string{
		`fleet_members 3`,
		`fleet_member_up{member="db0"} 1`,
		`fleet_member_up{member="ctl0"} 1`,
		`fleet_member_up{member="sw0"} 1`,
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/fleet/metrics missing %q:\n%s", series, metrics)
		}
	}
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		prefix := fmt.Sprintf(`fleet_convergence_seconds{quantile="%s"} `, q)
		found := false
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				found = true
				if strings.TrimSpace(v) == "0" {
					t.Fatalf("p%s convergence is zero:\n%s", q, metrics)
				}
			}
		}
		if !found {
			t.Fatalf("/fleet/metrics missing quantile %s:\n%s", q, metrics)
		}
	}

	// One-shot mode prints the member table on stdout, plus the
	// fleet-wide hot-rule table scraped from the controller's profiler
	// (on whenever the controller is observed): rule IDs ranked by EWMA
	// cost with the hottest member attributed.
	out, err := exec.Command(filepath.Join(bin, "nerpa-top"), "-targets", targets, "-once").CombinedOutput()
	if err != nil {
		t.Fatalf("nerpa-top -once: %v\n%s", err, out)
	}
	for _, wantStr := range []string{
		"db0", "ctl0", "sw0", "up", "convergence",
		"hot rules", "InVlan#0", "TOP MEMBER",
	} {
		if !strings.Contains(string(out), wantStr) {
			t.Fatalf("nerpa-top -once output missing %q:\n%s", wantStr, out)
		}
	}

	// Kill the switch: its member flips from up within ~one poll.
	swCmd.Process.Kill()
	swCmd.Wait()
	flipDeadline := time.Now().Add(10 * pollInterval)
	for {
		var status struct {
			Members []struct {
				Name   string `json:"name"`
				Health string `json:"health"`
			} `json:"members"`
		}
		body := fetchURL(t, "http://"+topAddr+"/fleet", flipDeadline)
		if err := json.Unmarshal([]byte(body), &status); err != nil {
			t.Fatalf("/fleet is not JSON: %v\n%s", err, body)
		}
		stale := false
		for _, m := range status.Members {
			if m.Name == "sw0" && m.Health == "stale" {
				stale = true
			}
		}
		if stale {
			break
		}
		if time.Now().After(flipDeadline) {
			t.Fatalf("sw0 never went stale after kill: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if resp, err := http.Get("http://" + topAddr + "/fleet/metrics"); err == nil {
		defer resp.Body.Close()
		buf := new(strings.Builder)
		b := make([]byte, 64<<10)
		for {
			n, rerr := resp.Body.Read(b)
			buf.Write(b[:n])
			if rerr != nil {
				break
			}
		}
		if !strings.Contains(buf.String(), `fleet_member_up{member="sw0"} 0`) {
			t.Fatalf("metrics still report sw0 up after kill:\n%s", buf.String())
		}
	}
}
