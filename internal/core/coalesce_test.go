package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dl/engine"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// heldDP is a fakeDP whose first writes each announce themselves on
// entered and then wait for one receive from release, so the test decides
// when each push completes and commits made meanwhile queue up behind the
// busy event loop.
type heldDP struct {
	*fakeDP
	mu               sync.Mutex
	held             int // writes still to hold
	entered, release chan struct{}
}

func (h *heldDP) Write(updates ...p4rt.Update) error {
	h.mu.Lock()
	hold := h.held > 0
	h.held--
	h.mu.Unlock()
	if hold {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.fakeDP.Write(updates...)
}

// waitEntered waits for the next held write to start.
func (h *heldDP) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("held device write never started")
	}
}

// portRow is an access port's row.
func portRow(name string, num, tag int64) map[string]ovsdb.Value {
	return map[string]ovsdb.Value{"name": name, "port_num": num, "vlan_mode": "access", "tag": tag}
}

// startQueuedCommits holds the write of a first commit (startHeld) and
// returns once ports p1 and p2, committed separately while it is held,
// are queued behind it. Releasing that write lets the loop drain the
// queue, which coalescing merges into one apply.
func startQueuedCommits(t *testing.T, held int) (*Controller, *obs.Observer, *heldDP) {
	t.Helper()
	ctrl, o, mp, dp := startHeld(t, held)
	transact(t, mp, ovsdb.OpInsert("Port", portRow("p1", 1, 10)))
	transact(t, mp, ovsdb.OpInsert("Port", portRow("p2", 2, 20)))
	waitQueued(t, ctrl, 2)
	return ctrl, o, dp
}

// startHeld boots a controller with coalescing and observability on (so
// provenance attribution is collected) over a device that holds its
// first held writes, and returns once the first of them is held: the
// push of a first commit, the switch config and access port p0 (port
// 7, VLAN 30). Events made meanwhile queue up behind the busy loop.
func startHeld(t *testing.T, held int) (*Controller, *obs.Observer, *fakeMP, *heldDP) {
	t.Helper()
	mp, fake := newFakes(t)
	dp := &heldDP{fakeDP: fake, held: held, entered: make(chan struct{}, held), release: make(chan struct{})}
	o := obs.NewObserver()
	ctrl, err := New(Config{
		Rules: snvs.Rules, Database: "snvs", Obs: o, CoalesceMaxTxns: 8,
	}, mp, dp)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	t.Cleanup(func() { close(dp.release) }) // a failed test leaves no write held

	transact(t, mp, ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
		ovsdb.OpInsert("Port", portRow("p0", 7, 30)))
	dp.waitEntered(t)
	return ctrl, o, mp, dp
}

// waitQueued waits until n events wait in the controller's queue.
func waitQueued(t *testing.T, ctrl *Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(ctrl.events) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d events queued, want %d", len(ctrl.events), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// findInputLeaf walks an explain tree for the input leaf whose record
// rendering contains the needle.
func findInputLeaf(n *engine.ExplainNode, needle string) *engine.ExplainNode {
	if n == nil {
		return nil
	}
	if n.Kind == "input" && strings.Contains(n.Record, needle) {
		return n
	}
	for _, ch := range n.Children {
		if leaf := findInputLeaf(ch, needle); leaf != nil {
			return leaf
		}
	}
	return nil
}

// portOrigins returns each named port's originating txn ID from the
// input origin map (input keys embed the record's string fields
// verbatim), read on the event loop once the commits queued before the
// call have been applied.
func portOrigins(t *testing.T, ctrl *Controller, names ...string) map[string]uint64 {
	t.Helper()
	txns := map[string]uint64{}
	if err := ctrl.onLoop(func() {
		for k, origin := range ctrl.prov.inputs {
			if !strings.HasPrefix(k, "Port\x00") {
				continue
			}
			for _, name := range names {
				if strings.Contains(k, name) {
					txns[name] = origin.txnID
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(txns) != len(names) {
		t.Fatalf("input origins recorded for %v, want %v", txns, names)
	}
	return txns
}

// TestCoalescingPreservesAttribution is the regression test for per-txn
// attribution under merged monitor batches: when two separately-committed
// ports arrive in one coalesced apply, /debug/explain must map each
// pushed entry back to the commit that inserted its port — not to the
// merged batch's (last) transaction ID.
func TestCoalescingPreservesAttribution(t *testing.T) {
	ctrl, o, dp := startQueuedCommits(t, 1)
	dp.release <- struct{}{}

	txnByPort := portOrigins(t, ctrl, "p1", "p2")
	if err := ctrl.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}

	if merged := o.Reg().Counter("core_coalesced_txns_total", "").Value(); merged != 2 {
		t.Fatalf("core_coalesced_txns_total = %d, want 2 (p1 and p2 merged; coalescing inactive?)", merged)
	}
	if txnByPort["p1"] == 0 || txnByPort["p2"] == 0 {
		t.Fatalf("zero txn in input origins: %v", txnByPort)
	}
	if txnByPort["p1"] == txnByPort["p2"] {
		t.Fatalf("both ports attributed to txn %d: merged batch collapsed per-commit attribution", txnByPort["p1"])
	}

	// Full /debug/explain path: some pushed entry must reach an input
	// leaf for p1 annotated with p1's commit — not the merged apply's
	// txn ID (that is the last commit's, p2's at the earliest). The
	// entry's own source record is an output tuple (it never mentions
	// "p1"), so search by explain tree.
	var keys []entryKey
	if err := ctrl.onLoop(func() {
		for k := range ctrl.prov.entries {
			keys = append(keys, k)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("no pushed entries recorded")
	}
	found := false
	for _, k := range keys {
		res, err := ctrl.Explain(k.table, k.match, 0, 0)
		if err != nil {
			continue // ambiguous or evicted; try the next entry
		}
		leaf := findInputLeaf(res.(*ExplainResult).Tree, "p1")
		if leaf == nil {
			continue
		}
		found = true
		if leaf.TxnID != txnByPort["p1"] {
			t.Fatalf("explain leaf for p1 carries txn %d, want p1's commit %d (merged batch misattributed)",
				leaf.TxnID, txnByPort["p1"])
		}
	}
	if !found {
		t.Fatal("no pushed entry's explain tree reaches a p1 input leaf")
	}
}

// TestCoalesceBarrierFlushes pins the control-event interaction: a
// barrier queued behind commits is the event that ends their merged batch,
// and it returns only after that batch has been pushed.
func TestCoalesceBarrierFlushes(t *testing.T) {
	ctrl, o, dp := startQueuedCommits(t, 2)
	barrier := make(chan error, 1)
	go func() { barrier <- ctrl.Barrier() }()
	waitQueued(t, ctrl, 3)
	dp.release <- struct{}{}

	// The merged batch's write is now in flight and held: the barrier
	// behind it must not return until that write completes.
	dp.waitEntered(t)
	select {
	case <-barrier:
		t.Fatal("barrier returned before the merged batch's push")
	case <-time.After(50 * time.Millisecond):
	}
	dp.release <- struct{}{}
	select {
	case err := <-barrier:
		if err != nil {
			t.Fatalf("barrier: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier queued behind a merged batch never returned")
	}
	pushed := map[uint64]bool{}
	for _, u := range dp.allUpdates() {
		if u.Entry != nil && u.Entry.Table == "in_vlan" {
			pushed[u.Entry.Matches[0].Value] = true
		}
	}
	if !pushed[1] || !pushed[2] {
		t.Fatalf("barrier returned before the merged batch's push: in_vlan ports %v, want 1 and 2", pushed)
	}
	if merged := o.Reg().Counter("core_coalesced_txns_total", "").Value(); merged != 2 {
		t.Fatalf("core_coalesced_txns_total = %d, want 2 (p1 and p2 merged; coalescing inactive?)", merged)
	}
}

// learnList is digest list i of a run: it learns MAC 0xa0+i on port p0
// (port 7, VLAN 30).
func learnList(i int) p4rt.DigestList {
	return p4rt.DigestList{Digest: "learn", ListID: uint64(i + 1), Messages: [][]uint64{{0xa0 + uint64(i), 30, 7}}}
}

// updateCounts counts each distinct update a device received.
func updateCounts(ups []p4rt.Update) map[string]int {
	n := map[string]int{}
	for _, u := range ups {
		if u.Entry != nil {
			n[fmt.Sprintf("%s %+v", u.Type, *u.Entry)]++
		} else {
			n[fmt.Sprintf("%s %+v", u.Type, *u.Multicast)]++
		}
	}
	return n
}

// TestCoalesceDigestLists: digest lists queued behind a busy loop are
// learnt in one engine apply and written in one device write, which
// holds what an uncoalesced controller writes for the same lists.
func TestCoalesceDigestLists(t *testing.T) {
	const k = 6
	ctrl, o, _, dp := startHeld(t, 1)
	for i := range k {
		dp.onDigest(learnList(i))
	}
	waitQueued(t, ctrl, k)
	dp.release <- struct{}{}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	reg := o.Reg()
	if n := reg.Counter("core_txn_total", "", obs.L("source", "digest")).Value(); n != 1 {
		t.Fatalf("core_txn_total{source=digest} = %d, want 1 apply for %d lists", n, k)
	}
	if n := reg.Counter("core_coalesce_batches_total", "").Value(); n != 1 {
		t.Fatalf("core_coalesce_batches_total = %d, want 1", n)
	}
	if n := reg.Counter("core_coalesced_txns_total", "").Value(); n != k {
		t.Fatalf("core_coalesced_txns_total = %d, want %d", n, k)
	}
	dp.mu.Lock()
	writes := slices.Clone(dp.writes)
	dp.mu.Unlock()
	if len(writes) != 2 {
		t.Fatalf("%d device writes, want 2: the held commit's and one for the %d lists", len(writes), k)
	}
	if n := len(writes[1]); n != 2*k {
		t.Fatalf("the lists' write carries %d updates, want %d (smac and dmac per learn)", n, 2*k)
	}

	// The same commit and lists, uncoalesced.
	mp1, dp1 := newFakes(t)
	ctrl1, err := New(Config{Rules: snvs.Rules, Database: "snvs", CoalesceMaxTxns: 1}, mp1, dp1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl1.Stop)
	transact(t, mp1, ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
		ovsdb.OpInsert("Port", portRow("p0", 7, 30)))
	waitUpdates(t, dp1, 1) // the commit is applied before the lists arrive
	for i := range k {
		dp1.onDigest(learnList(i))
	}
	if err := ctrl1.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got, want := updateCounts(dp.allUpdates()), updateCounts(dp1.allUpdates()); !reflect.DeepEqual(got, want) {
		t.Fatalf("coalesced device received %v, uncoalesced %v", got, want)
	}
}

// TestCoalesceDigestBetweenCommits: a digest list queued between two
// commits is applied on its own and ends both commits' batches, so
// every entry origin names the source of the event that pushed it.
func TestCoalesceDigestBetweenCommits(t *testing.T) {
	ctrl, o, mp, dp := startHeld(t, 1)
	// Each event is queued before the next is made: commits reach the
	// queue from the monitor's delivery goroutine.
	transact(t, mp, ovsdb.OpInsert("Port", portRow("p1", 1, 10)))
	waitQueued(t, ctrl, 1)
	dp.onDigest(learnList(0))
	waitQueued(t, ctrl, 2)
	transact(t, mp, ovsdb.OpInsert("Port", portRow("p2", 2, 20)))
	waitQueued(t, ctrl, 3)
	dp.release <- struct{}{}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	reg := o.Reg()
	if n := reg.Counter("core_coalesce_batches_total", "").Value(); n != 0 {
		t.Fatalf("core_coalesce_batches_total = %d, want 0: a digest merged with a commit", n)
	}
	for src, want := range map[string]uint64{"ovsdb": 3, "digest": 1} {
		if n := reg.Counter("core_txn_total", "", obs.L("source", src)).Value(); n != want {
			t.Fatalf("core_txn_total{source=%s} = %d, want %d", src, n, want)
		}
	}
	sources := map[string]string{} // table → source of its entries' origins
	if err := ctrl.onLoop(func() {
		for _, origin := range ctrl.prov.entries {
			if prev, ok := sources[origin.Table]; ok && prev != origin.Source {
				t.Errorf("table %s has entries from %q and %q", origin.Table, prev, origin.Source)
			}
			sources[origin.Table] = origin.Source
		}
	}); err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]string{"dmac": "digest", "smac": "digest", "in_vlan": "ovsdb"} {
		if sources[table] != want {
			t.Errorf("%s entries pushed by source %q, want %q", table, sources[table], want)
		}
	}
}
