package nerpa

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ovsdb"
)

// TestWALCrashRecoveryEndToEnd SIGKILLs the OVSDB server process
// mid-workload and restarts it from its write-ahead log. A SIGKILL is
// the one failure drains and graceful shutdown cannot dress up: the
// process gets no chance to flush, so everything the restarted server
// knows must come from what fsync made durable. The test asserts
//
//   - exact reconvergence: after replay the Port table is byte-identical
//     to the committed state a monitoring controller had cached before
//     the crash (every acked transaction survived),
//   - gap-only resumption: the controller that rode through the crash
//     resynchronized via cursor gap replay, not a full snapshot, and the
//     rows it received after the kill are far fewer than the table, and
//   - monotonic transaction IDs: commits after restart carry IDs above
//     everything issued before the crash (the counter was reseeded from
//     the log, so event attribution never aliases across restarts).
func TestWALCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: skipped in -short")
	}
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", filepath.Join(bin, "ovsdb-server"), "./cmd/ovsdb-server").CombinedOutput()
	if err != nil {
		t.Fatalf("build ovsdb-server: %v\n%s", err, out)
	}

	walDir := t.TempDir()
	addr := freeAddrs(t, 1)[0]
	start := func() *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, "ovsdb-server"),
			"-addr", addr, "-wal-dir", walDir, "-wal-fsync", "commit")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start ovsdb-server: %v", err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	srv := start()
	waitDialable(t, addr)

	// The monitoring controller: a resilient client whose callback
	// maintains a mirror of the Port table and, once the crash flag is
	// up, counts every row it is sent. The mirror is what "committed
	// state before the crash" means below — it only ever advances on
	// server-acked commits. A fallback snapshot replaces it whole.
	var mu sync.Mutex
	mirror := make(map[string]ovsdb.Row)
	var crashed bool
	var postCrashRows int
	var maxTxn uint64
	cli, err := ovsdb.DialResilient(ovsdb.ResilientConfig{
		Addr:       addr,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.MonitorTxn("snvs", "crash-e2e", map[string]*ovsdb.MonitorRequest{
		"Port": {},
	}, func(txn uint64, tu ovsdb.TableUpdates) {
		mu.Lock()
		defer mu.Unlock()
		if txn == ovsdb.SnapshotTxn {
			clear(mirror)
		} else if txn > maxTxn {
			maxTxn = txn
		}
		for id, ru := range tu["Port"] {
			if ru.New != nil {
				mirror[id] = ru.New
			} else {
				delete(mirror, id)
			}
			if crashed {
				postCrashRows++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Writer workload: insert ports one commit at a time until the
	// server dies under it. Only acked commits count.
	wc, err := ovsdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	const preCrashTarget = 40
	acked := 0
	for i := 0; ; i++ {
		_, terr := wc.TransactErr("snvs", ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name":      fmt.Sprintf("p%d", i),
			"port_num":  int64(i + 1),
			"vlan_mode": "access",
			"tag":       int64(10),
		}))
		if terr != nil {
			if acked < preCrashTarget {
				t.Fatalf("writer failed after only %d acked commits: %v", acked, terr)
			}
			break // the kill below landed mid-workload
		}
		acked++
		if acked == preCrashTarget {
			// Mid-workload SIGKILL: no drain, no flush, no goodbye.
			if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("kill: %v", err)
			}
		}
		if acked > preCrashTarget+1000 {
			t.Fatal("server never died after SIGKILL")
		}
	}
	srv.Wait()
	// Let the client read loop drain whatever the kernel flushed from the
	// dead server's socket before snapshotting; any notification that
	// died with the process is recovered via gap replay below.
	time.Sleep(200 * time.Millisecond)

	// Snapshot the controller's committed view. Update delivery is
	// asynchronous, so the mirror can trail the acks — but it only ever
	// holds server-committed state, which is the invariant that matters:
	// every row in it must survive recovery byte-for-byte.
	mu.Lock()
	crashed = true
	preCrashMirror := make(map[string]string, len(mirror))
	for id, row := range mirror {
		b, merr := json.Marshal(row)
		if merr != nil {
			mu.Unlock()
			t.Fatalf("marshal mirror row: %v", merr)
		}
		preCrashMirror[id] = string(b)
	}
	preCrashTxn := maxTxn
	mu.Unlock()
	if len(preCrashMirror) == 0 {
		t.Fatal("mirror empty before crash; monitor never delivered")
	}

	// Restart from the same WAL directory on the same address. The
	// resilient client must reconnect and resync on its own.
	start()
	waitDialable(t, addr)

	// Probe commit after restart: once the monitor callback sees it, the
	// resync (gap or otherwise) that preceded it has fully drained, and
	// its txn ID shows whether the counter survived the crash.
	wc2, err := ovsdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc2.Close()
	if _, err := wc2.TransactErr("snvs", ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name":      "probe",
		"port_num":  int64(9999),
		"vlan_mode": "access",
		"tag":       int64(99),
	})); err != nil {
		t.Fatalf("post-restart probe commit: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		seen := maxTxn > preCrashTxn
		mu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor never saw the post-restart probe commit")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Monotonic attribution: the probe's txn ID must sit above every
	// pre-crash commit — the restarted server reseeded its counter from
	// the log instead of starting over at 1.
	mu.Lock()
	probeTxn := maxTxn
	mu.Unlock()
	if probeTxn <= preCrashTxn || probeTxn < uint64(acked)+1 {
		t.Errorf("post-restart txn %d does not extend pre-crash sequence (saw %d, acked %d)", probeTxn, preCrashTxn, acked)
	}

	// Exact reconvergence: select the whole recovered table and compare
	// it row-for-row (canonical JSON) against the pre-crash mirror. The
	// probe row is the only admissible difference. Recovery may also
	// have kept a commit that was durable but whose ack raced the kill —
	// those rows must still be ones the writer actually attempted.
	res, err := wc2.TransactErr("snvs", ovsdb.OpSelect("Port"))
	if err != nil {
		t.Fatalf("post-restart select: %v", err)
	}
	recovered := make(map[string]string)
	for _, row := range res[0].Rows {
		uuid, ok := row["_uuid"].(ovsdb.UUID)
		if !ok {
			t.Fatalf("select row without _uuid: %v", row)
		}
		id := string(uuid)
		if row["name"] == "probe" {
			continue
		}
		delete(row, "_uuid")
		b, merr := json.Marshal(row)
		if merr != nil {
			t.Fatalf("marshal recovered row: %v", merr)
		}
		recovered[id] = string(b)
	}
	for id, want := range preCrashMirror {
		got, ok := recovered[id]
		if !ok {
			t.Errorf("acked row %s lost across crash recovery", id)
			continue
		}
		if got != want {
			t.Errorf("row %s diverged across recovery:\n  pre-crash: %s\n  recovered: %s", id, want, got)
		}
	}
	for id, row := range recovered {
		if _, ok := preCrashMirror[id]; !ok {
			// A row the mirror never saw: either its notification died
			// with the process or its commit was durable but the ack
			// raced the kill. Both are legal, but it must look like one
			// of the writer's inserts.
			var m map[string]any
			if err := json.Unmarshal([]byte(row), &m); err != nil || m["vlan_mode"] != "access" {
				t.Errorf("recovered row %s is not one the workload wrote: %s", id, row)
			}
		}
	}
	// The writer was serial, so durable state is exactly the acked rows
	// plus at most the single commit in flight when the process died.
	if len(recovered) != acked && len(recovered) != acked+1 {
		t.Errorf("recovered table has %d rows; want %d acked (+1 in-flight at most)", len(recovered), acked)
	}

	// Gap-only resumption: the reconnect went through cursor replay, and
	// the rows shipped after the crash (resync deltas plus the probe) are
	// a small fraction of the table — not a full snapshot.
	gap, snap := cli.ResyncStats()
	if gap < 1 || snap != 0 {
		t.Errorf("resync stats: gap=%d snapshot=%d; want cursor gap replay only", gap, snap)
	}
	mu.Lock()
	delivered := postCrashRows
	mu.Unlock()
	if delivered >= len(recovered) {
		t.Errorf("post-crash deliveries (%d rows) not smaller than table (%d rows); resync was not gap-only", delivered, len(recovered))
	}
}
