package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// fakeMP is an in-process management plane: a real ovsdb.Database fronted
// without the wire protocol.
type fakeMP struct {
	db *ovsdb.Database
}

func (f *fakeMP) GetSchema(string) (*ovsdb.DatabaseSchema, error) { return f.db.Schema(), nil }

func (f *fakeMP) MonitorTxn(_ string, _ any, requests map[string]*ovsdb.MonitorRequest, cb func(uint64, ovsdb.TableUpdates)) (ovsdb.TableUpdates, error) {
	_, initial, err := f.db.AddMonitor(requests, cb)
	return initial, err
}

// fakeDP records Write calls.
type fakeDP struct {
	info *p4.P4Info

	mu       sync.Mutex
	writes   [][]p4rt.Update
	onDigest func(p4rt.DigestList)
	failNext bool
	unavail  bool
}

func (f *fakeDP) GetP4Info() (*p4.P4Info, error) { return f.info, nil }

func (f *fakeDP) Write(updates ...p4rt.Update) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unavail {
		return fmt.Errorf("fake device down: %w", p4rt.ErrUnavailable)
	}
	if f.failNext {
		f.failNext = false
		return &failErr{}
	}
	f.writes = append(f.writes, updates)
	return nil
}

// setUnavailable simulates a transport outage: writes fail with
// p4rt.ErrUnavailable (which the controller tolerates) until cleared.
func (f *fakeDP) setUnavailable(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unavail = on
}

type failErr struct{}

func (*failErr) Error() string { return "injected write failure" }

func (f *fakeDP) OnDigest(cb func(p4rt.DigestList)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onDigest = cb
}

func (f *fakeDP) allUpdates() []p4rt.Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []p4rt.Update
	for _, w := range f.writes {
		out = append(out, w...)
	}
	return out
}

func newFakes(t *testing.T) (*fakeMP, *fakeDP) {
	t.Helper()
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	info, err := p4.BuildP4Info(snvs.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeMP{db: ovsdb.NewDatabase(schema)}, &fakeDP{info: info}
}

func startCtrl(t *testing.T, mp *fakeMP, dp *fakeDP) *Controller {
	t.Helper()
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs"}, mp, dp)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	return ctrl
}

func transact(t *testing.T, mp *fakeMP, ops ...ovsdb.Operation) {
	t.Helper()
	for i, r := range mp.db.Transact(ops) {
		if r.Error != "" {
			t.Fatalf("op %d: %s (%s)", i, r.Error, r.Details)
		}
	}
}

// waitUpdates waits until the device has received at least n updates.
func waitUpdates(t *testing.T, dp *fakeDP, n int) []p4rt.Update {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ups := dp.allUpdates()
		if len(ups) >= n {
			return ups
		}
		if time.Now().After(deadline) {
			t.Fatalf("device has %d updates, want >= %d", len(ups), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestControllerRequiresDevices(t *testing.T) {
	mp, _ := newFakes(t)
	if _, err := New(Config{Rules: snvs.Rules, Database: "snvs"}, mp); err == nil {
		t.Fatalf("New without devices succeeded")
	}
}

func TestControllerRejectsBadRules(t *testing.T) {
	mp, dp := newFakes(t)
	_, err := New(Config{Rules: `InVlan(p) :- Port(p).`, Database: "snvs"}, mp, dp)
	if err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("bad rules accepted: %v", err)
	}
}

func TestControllerInitialSnapshot(t *testing.T) {
	mp, dp := newFakes(t)
	// Rows inserted before the controller starts arrive via the initial
	// monitor dump.
	transact(t, mp,
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
	)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	ups := dp.allUpdates()
	var sawInVlan, sawMcast bool
	for _, u := range ups {
		if u.Entry != nil && u.Entry.Table == "in_vlan" {
			sawInVlan = true
		}
		if u.Multicast != nil && u.Multicast.Group == 4096+10 {
			sawMcast = true
		}
	}
	if !sawInVlan || !sawMcast {
		t.Fatalf("initial push missing entries: %+v", ups)
	}
}

func TestControllerModifyProducesDeleteBeforeInsert(t *testing.T) {
	mp, dp := newFakes(t)
	transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
	}))
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := len(dp.allUpdates())
	transact(t, mp, ovsdb.OpUpdate("Port",
		map[string]ovsdb.Value{"tag": int64(20)}, ovsdb.Cond("name", "==", "p1")))
	ups := waitUpdates(t, dp, before+1)[before:]
	// The in_vlan change is a modify of the same match key: the delete of
	// the old entry must precede the insert of the new one.
	delIdx, insIdx := -1, -1
	for i, u := range ups {
		if u.Entry == nil || u.Entry.Table != "in_vlan" {
			continue
		}
		switch u.Type {
		case p4rt.UpdateDelete:
			delIdx = i
		case p4rt.UpdateInsert:
			insIdx = i
		}
	}
	if delIdx == -1 || insIdx == -1 || delIdx > insIdx {
		t.Fatalf("modify ordering wrong: del=%d ins=%d in %+v", delIdx, insIdx, ups)
	}
}

func TestControllerDigestFeedback(t *testing.T) {
	mp, dp := newFakes(t)
	transact(t, mp,
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
	)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := len(dp.allUpdates())
	dp.onDigest(p4rt.DigestList{Digest: "learn", ListID: 1, Messages: [][]uint64{
		{0xaa, 10, 1},
	}})
	ups := waitUpdates(t, dp, before+1)[before:]
	var sawDmac, sawSmac bool
	for _, u := range ups {
		if u.Entry != nil && u.Entry.Table == "dmac" && u.Entry.Params[0] == 1 {
			sawDmac = true
		}
		if u.Entry != nil && u.Entry.Table == "smac" {
			sawSmac = true
		}
	}
	if !sawDmac || !sawSmac {
		t.Fatalf("digest did not produce learning entries: %+v", ups)
	}
	// A duplicate digest is idempotent: no further writes.
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	count := len(dp.allUpdates())
	dp.onDigest(p4rt.DigestList{Digest: "learn", ListID: 2, Messages: [][]uint64{
		{0xaa, 10, 1},
	}})
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(dp.allUpdates()) != count {
		t.Fatalf("duplicate digest produced writes")
	}
	// Malformed digests (overflowing fields) poison the controller.
	dp.onDigest(p4rt.DigestList{Digest: "learn", ListID: 3, Messages: [][]uint64{
		{0xaa, 1 << 13, 1},
	}})
	deadline := time.Now().Add(2 * time.Second)
	for ctrl.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("bad digest did not surface an error")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestControllerWriteFailureStops(t *testing.T) {
	mp, dp := newFakes(t)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	dp.mu.Lock()
	dp.failNext = true
	dp.mu.Unlock()
	transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
	}))
	deadline := time.Now().Add(5 * time.Second)
	for ctrl.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("write failure did not stop the controller")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(ctrl.Err().Error(), "injected") {
		t.Fatalf("unexpected error: %v", ctrl.Err())
	}
}

// TestControllerTxnStats reads one applied OVSDB transaction back from
// the core_* series, the controller's per-transaction record.
func TestControllerTxnStats(t *testing.T) {
	mp, dp := newFakes(t)
	o := obs.NewObserver()
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs", Obs: o}, mp, dp)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
	}))
	waitUpdates(t, dp, 1)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	// The initial sync of the empty database and the one insert.
	snap := o.Reg().Snapshot()
	for series, want := range map[string]float64{
		`core_txn_total{source="initial"}`: 1,
		`core_txn_total{source="ovsdb"}`:   1,
		`core_input_updates_count`:         2,
		`core_input_updates_sum`:           1,
		`core_output_changes_count`:        2,
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got, want := snap[`core_output_changes_sum`], float64(len(dp.allUpdates())); got != want {
		t.Errorf("core_output_changes_sum = %v, want the %v updates the device received", got, want)
	}
}

// txnDP is a fake device that also implements TxnWriter, recording the
// transaction ID each txn-carrying write was tagged with.
type txnDP struct {
	*fakeDP
	txns []uint64
}

func (d *txnDP) WriteTxn(txn uint64, updates ...p4rt.Update) error {
	d.mu.Lock()
	d.txns = append(d.txns, txn)
	d.mu.Unlock()
	return d.Write(updates...)
}

// TestObsDecidesCollection: Config.Obs alone decides what the controller
// and engine collect. Unobserved, the engine keeps no statistics or
// provenance and devices get plain writes; observed, all of it is on and
// each commit's writes carry its transaction ID.
func TestObsDecidesCollection(t *testing.T) {
	for _, observed := range []bool{false, true} {
		t.Run(fmt.Sprintf("observed=%v", observed), func(t *testing.T) {
			mp, base := newFakes(t)
			dp := &txnDP{fakeDP: base}
			var o *obs.Observer
			if observed {
				o = obs.NewObserver()
			}
			ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs", Obs: o}, mp, dp)
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Stop()
			transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
				"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
			}))
			commit := mp.db.LastTxnID()
			waitUpdates(t, base, 1)
			if err := ctrl.Barrier(); err != nil {
				t.Fatal(err)
			}
			// The barrier ordered the event loop's last apply before us.
			st, prov := ctrl.rt.LastApplyStats(), ctrl.rt.ProvenanceEnabled()
			dp.mu.Lock()
			txns := dp.txns
			dp.mu.Unlock()
			if !observed {
				if st != nil || prov || len(txns) != 0 {
					t.Fatalf("unobserved: stats=%+v provenance=%v WriteTxn calls=%v, want none", st, prov, txns)
				}
				return
			}
			if st == nil || len(st.Rules) == 0 || !prov {
				t.Fatalf("observed: stats=%+v provenance=%v, want stats with rule rows and provenance", st, prov)
			}
			var ruleSeries bool
			for series := range o.Reg().Snapshot() {
				ruleSeries = ruleSeries || strings.HasPrefix(series, "dl_rule_eval_ns_total{")
			}
			if !ruleSeries {
				t.Fatal("observed: no dl_rule_* series registered")
			}
			if len(txns) != 1 || txns[0] != commit {
				t.Fatalf("observed: WriteTxn txn IDs = %v, want [%d] (the commit)", txns, commit)
			}
		})
	}
}

func TestControllerContentsAndProgram(t *testing.T) {
	mp, dp := newFakes(t)
	ctrl := startCtrl(t, mp, dp)
	if ctrl.Program() == nil {
		t.Fatalf("accessors returned nil")
	}
	if _, err := ctrl.Contents("InVlan"); err != nil {
		t.Fatalf("Contents: %v", err)
	}
	if _, err := ctrl.Contents("Nope"); err == nil {
		t.Fatalf("Contents(Nope) succeeded")
	}
}
