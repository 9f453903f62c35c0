package nerpa

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ovsdb"
	"repro/internal/p4rt"
)

// TestProcessLevelEndToEnd builds the three plane binaries, runs them as
// separate OS processes, configures the network through the
// management-plane process, and observes the entries landing in the
// data-plane process — the deployment shape of Fig. 2/4.
func TestProcessLevelEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"ovsdb-server", "snvs-switch", "nerpa-controller"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	addrs := freeAddrs(t, 5)
	ovsdbAddr, p4rtAddr, ovsdbObs, switchObs, ctrlObs := addrs[0], addrs[1], addrs[2], addrs[3], addrs[4]

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
	start("ovsdb-server", "-addr", ovsdbAddr, "-obs-addr", ovsdbObs)
	start("snvs-switch", "-p4rt", p4rtAddr, "-obs-addr", switchObs)
	waitDialable(t, ovsdbAddr)
	waitDialable(t, p4rtAddr)
	start("nerpa-controller", "-ovsdb", ovsdbAddr, "-p4rt", p4rtAddr, "-db", "snvs",
		"-obs-addr", ctrlObs)

	// Configure through the management plane.
	dbc, err := ovsdb.Dial(ovsdbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer dbc.Close()
	deadline := time.Now().Add(10 * time.Second)
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

	// Observe the derived entries through the data plane's control API.
	p4c, err := p4rt.Dial(p4rtAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer p4c.Close()
	for {
		entries, err := p4c.ReadTable("in_vlan")
		if err == nil && len(entries) == 1 &&
			entries[0].Action == "set_vlan" && entries[0].Params[0] == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in_vlan never converged: %v, %v", entries, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Each process serves its own plane's metrics on -obs-addr.
	for addr, series := range map[string]string{
		ovsdbObs:  "ovsdb_txn_total",
		switchObs: "switchsim_writes_total",
		ctrlObs:   "p4rt_writes_total",
	} {
		body := fetchMetrics(t, addr, deadline)
		if !strings.Contains(body, "# TYPE "+series+" counter") {
			t.Fatalf("http://%s/metrics missing %s:\n%s", addr, series, body)
		}
	}

	// The management plane's tracer saw the transaction.
	body := fetchURL(t, "http://"+ovsdbObs+"/debug/traces", deadline)
	var dump struct {
		Traces []struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, body)
	}
	if len(dump.Traces) == 0 || len(dump.Traces[0].Stages) == 0 {
		t.Fatalf("/debug/traces empty: %s", body)
	}
}

func fetchMetrics(t *testing.T, addr string, deadline time.Time) string {
	t.Helper()
	return fetchURL(t, "http://"+addr+"/metrics", deadline)
}

func fetchURL(t *testing.T, url string, deadline time.Time) string {
	t.Helper()
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return string(body)
			}
			err = fmt.Errorf("GET %s: status %s, read err %v", url, resp.Status, rerr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fetching %s: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// freeAddrs reserves n distinct loopback addresses for child processes
// to listen on. Every probe listener stays open until all n are taken
// and they are closed together, so the kernel cannot hand one port to two
// probes (closing each before the next probe let two children race for
// the same port: "bind: address already in use").
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func waitDialable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
