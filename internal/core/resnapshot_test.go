package core_test

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/dl/engine"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/snvs"
)

// TestResnapshotUnchangedRowsWriteNothing: a database restart that the
// monitor cannot resume from the gap window (there is none) hands the
// controller the whole table. Rows that did not change across the
// outage must cost nothing: the reconciliation applies no update, so
// the delta is empty, no device is written, and a Port keeps the
// transaction that inserted it in /debug/explain.
func TestResnapshotUnchangedRowsWriteNothing(t *testing.T) {
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	var deltas atomic.Int64
	s, err := deploy.Start(deploy.Spec{
		Schema: schema, Rules: snvs.Rules, Obs: o,
		Classes: []deploy.Class{{Program: snvs.Pipeline(), IDs: []string{"snvs0"}}},
		OnDelta: func(uint64, engine.Delta) { deltas.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.DB.SetGapWindow(-1)

	port := func(name string, num, tag int64) ovsdb.Operation {
		return ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": name, "port_num": num, "vlan_mode": "access", "tag": tag,
		})
	}
	if err := s.Transact(port("p1", 1, 10), port("p2", 2, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Ctrl.LoopContents([]string{"Port"})
	if err != nil {
		t.Fatal(err)
	}
	var p1 string
	for _, rec := range got["Port"] {
		if strings.Contains(rec.String(), `"p1"`) {
			p1 = rec.String()
		}
	}
	explainTxn := func() uint64 {
		t.Helper()
		w := httptest.NewRecorder()
		o.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/debug/explain?relation=Port&key="+url.QueryEscape(p1), nil))
		var res struct {
			Tree struct {
				Kind  string `json:"kind"`
				TxnID uint64 `json:"txn_id"`
			} `json:"tree"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &res); w.Code != 200 || err != nil || res.Tree.Kind != "input" {
			t.Fatalf("explain Port %s: %d %s", p1, w.Code, w.Body)
		}
		return res.Tree.TxnID
	}
	inserted := explainTxn()
	if inserted == 0 {
		t.Fatalf("Port %s has no inserting transaction", p1)
	}

	// While the server is down, p2 changes and changes back: the cursor
	// falls behind a window that keeps nothing, but no monitored row
	// differs.
	s.Kill(deploy.DB)
	for _, tag := range []int64{20, 10} {
		res := s.DB.Transact([]ovsdb.Operation{ovsdb.OpUpdate("Port",
			map[string]ovsdb.Value{"tag": tag}, ovsdb.Cond("name", "==", "p2"))})
		if res[0].Error != "" {
			t.Fatalf("update p2: %s", res[0].Error)
		}
	}
	resnaps := o.Reg().Counter("core_txn_total", "", obs.L("source", "resnapshot")).Value()
	writes := deviceWrites(o)
	before := deltas.Load()
	if err := s.Restart(deploy.DB); err != nil {
		t.Fatal(err)
	}
	// The snapshot is handed to the controller before the session is
	// published, so once it is, a barrier covers its reconciliation.
	deadline := time.Now().Add(10 * time.Second)
	for _, snaps := s.MP.ResyncStats(); snaps == 0 || !s.MP.Connected(); _, snaps = s.MP.ResyncStats() {
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot resync (connected %v)", s.MP.Connected())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if n := o.Reg().Counter("core_txn_total", "", obs.L("source", "resnapshot")).Value(); n != resnaps+1 {
		t.Fatalf("%d resnapshots applied across the restart, want 1", n-resnaps)
	}
	if n := deltas.Load() - before; n != 0 {
		t.Fatalf("the resnapshot of unchanged rows published %d deltas", n)
	}
	if n := deviceWrites(o) - writes; n != 0 {
		t.Fatalf("the resnapshot of unchanged rows wrote to a device %d times", n)
	}
	if txn := explainTxn(); txn != inserted {
		t.Fatalf("Port %s is attributed to txn %d after the resnapshot, want %d", p1, txn, inserted)
	}
}

// deviceWrites counts the controller's device writes so far: one
// core_device_push_updates sample per device a push writes to.
func deviceWrites(o *obs.Observer) uint64 {
	return o.Reg().Histogram("core_device_push_updates", "", obs.SizeBuckets).Count()
}
