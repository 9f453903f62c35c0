package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// fakeTR is a fake reconnected device for Resync: it holds the device's
// "actual" tables and applies the reconciliation writes it receives.
type fakeTR struct {
	mu      sync.Mutex
	entries map[string]p4rt.TableEntry // keyed by entryIdent
	mcast   map[uint16][]uint16
	writes  [][]p4rt.Update
	reads   []string
	failRd  bool
}

func newFakeTR() *fakeTR {
	return &fakeTR{entries: map[string]p4rt.TableEntry{}, mcast: map[uint16][]uint16{}}
}

func (f *fakeTR) ReadTable(table string) ([]p4rt.TableEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads = append(f.reads, table)
	if f.failRd {
		return nil, fmt.Errorf("fake: %w", p4rt.ErrUnavailable)
	}
	var out []p4rt.TableEntry
	for _, e := range f.entries {
		if e.Table == table {
			out = append(out, e)
		}
	}
	return out, nil
}

func (f *fakeTR) Write(updates ...p4rt.Update) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes = append(f.writes, updates)
	for _, u := range updates {
		if u.Entry != nil {
			if u.Type == p4rt.UpdateDelete {
				delete(f.entries, entryIdent(u.Entry))
			} else {
				f.entries[entryIdent(u.Entry)] = *u.Entry
			}
		}
		if u.Multicast != nil {
			if len(u.Multicast.Ports) == 0 {
				delete(f.mcast, u.Multicast.Group)
			} else {
				f.mcast[u.Multicast.Group] = append([]uint16(nil), u.Multicast.Ports...)
			}
		}
	}
	return nil
}

// flat returns all applied updates in order.
func (f *fakeTR) flat() []p4rt.Update {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []p4rt.Update
	for _, w := range f.writes {
		out = append(out, w...)
	}
	return out
}

func insertPorts(t *testing.T, mp *fakeMP) {
	t.Helper()
	transact(t, mp,
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
		}),
	)
}

// TestResyncRestoresEmptyDevice: a device that restarted with empty
// tables gets the controller's full desired state, and a second resync
// against the now-converged device issues no table writes.
func TestResyncRestoresEmptyDevice(t *testing.T) {
	mp, dp := newFakes(t)
	insertPorts(t, mp)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	// The restarted device comes back blank.
	tr := newFakeTR()
	if err := ctrl.Resync("dev0", tr); err != nil {
		t.Fatalf("resync: %v", err)
	}
	ups := tr.flat()
	var inserts, mcasts int
	for _, u := range ups {
		if u.Entry != nil {
			if u.Type != p4rt.UpdateInsert {
				t.Fatalf("resync to empty device issued %s of %v", u.Type, u.Entry)
			}
			inserts++
		}
		if u.Multicast != nil {
			mcasts++
		}
	}
	if inserts == 0 || mcasts == 0 {
		t.Fatalf("resync wrote %d inserts, %d mcast groups; want both > 0", inserts, mcasts)
	}
	if len(tr.reads) == 0 {
		t.Fatalf("resync did not read any tables")
	}

	// The device must now exactly match what the live device received.
	live := newFakeTR()
	if err := live.Write(dp.allUpdates()...); err != nil {
		t.Fatal(err)
	}
	if len(live.entries) != len(tr.entries) {
		t.Fatalf("resynced device has %d entries, live device has %d", len(tr.entries), len(live.entries))
	}
	for k := range live.entries {
		if _, ok := tr.entries[k]; !ok {
			t.Fatalf("resynced device missing entry %s", k)
		}
	}

	// Converged: a second resync writes no table entries (multicast is
	// re-pushed unconditionally — it has no read-back API).
	before := len(tr.flat())
	if err := ctrl.Resync("dev0", tr); err != nil {
		t.Fatalf("second resync: %v", err)
	}
	for _, u := range tr.flat()[before:] {
		if u.Entry != nil {
			t.Fatalf("second resync issued table write %v", u)
		}
	}
}

// TestResyncDeletesStaleAndFixesDrift: entries the controller never
// asked for are deleted; entries whose action drifted are modified.
func TestResyncDeletesStaleAndFixesDrift(t *testing.T) {
	mp, dp := newFakes(t)
	insertPorts(t, mp)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Start from the converged state, then corrupt it: one stale extra
	// entry, and one desired entry with a drifted action parameter.
	tr := newFakeTR()
	if err := tr.Write(dp.allUpdates()...); err != nil {
		t.Fatal(err)
	}
	stale := p4rt.TableEntry{
		Table:   "in_vlan",
		Matches: []p4.FieldMatch{{Value: 99}},
		Action:  "drop",
	}
	tr.entries[entryIdent(&stale)] = stale
	var driftedKey string
	for k, e := range tr.entries {
		if e.Table == "in_vlan" && len(e.Params) > 0 {
			e.Params = append([]uint64(nil), e.Params...)
			e.Params[0]++
			tr.entries[k] = e
			driftedKey = k
			break
		}
	}
	if driftedKey == "" {
		t.Fatalf("no in_vlan entry with params to drift")
	}

	before := len(tr.flat())
	if err := ctrl.Resync("dev0", tr); err != nil {
		t.Fatalf("resync: %v", err)
	}
	var sawDelete, sawModify bool
	for _, u := range tr.flat()[before:] {
		if u.Entry == nil {
			continue
		}
		switch u.Type {
		case p4rt.UpdateDelete:
			if entryIdent(u.Entry) != entryIdent(&stale) {
				t.Fatalf("deleted unexpected entry %v", u.Entry)
			}
			sawDelete = true
		case p4rt.UpdateModify:
			if entryIdent(u.Entry) != driftedKey {
				t.Fatalf("modified unexpected entry %v", u.Entry)
			}
			sawModify = true
		case p4rt.UpdateInsert:
			t.Fatalf("unexpected insert %v", u.Entry)
		}
	}
	if !sawDelete || !sawModify {
		t.Fatalf("resync: sawDelete=%v sawModify=%v; want both", sawDelete, sawModify)
	}
	if _, ok := tr.entries[entryIdent(&stale)]; ok {
		t.Fatalf("stale entry survived resync")
	}
}

// TestResyncErrors: unknown devices and unreadable devices report
// errors (the caller's redial loop retries); a stopped controller
// refuses cleanly.
func TestResyncErrors(t *testing.T) {
	mp, dp := newFakes(t)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Resync("nope", newFakeTR()); err == nil {
		t.Fatalf("resync of unknown device succeeded")
	}
	tr := newFakeTR()
	tr.failRd = true
	if err := ctrl.Resync("dev0", tr); !errors.Is(err, p4rt.ErrUnavailable) {
		t.Fatalf("resync with failing reads: %v, want ErrUnavailable", err)
	}
	ctrl.Stop()
	if err := ctrl.Resync("dev0", newFakeTR()); err == nil {
		t.Fatalf("resync after Stop succeeded")
	}
}

// TestPushToleratesUnavailableDevice: writes to a device that is merely
// unreachable must not poison the controller — the desired state keeps
// advancing and a resync heals the gap.
func TestPushToleratesUnavailableDevice(t *testing.T) {
	o := obs.NewObserver()
	mp, dp := newFakes(t)
	transact(t, mp,
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
	)
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs", Obs: o}, mp, dp)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	// Device goes dark; the management plane keeps changing. Monitor
	// delivery is asynchronous, so wait for the failed push itself
	// rather than a barrier (which can outrun the delivery goroutine).
	dp.setUnavailable(true)
	transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
	}))
	waitCounter(t, o, "core_push_errors_total", 1)
	if err := ctrl.Err(); err != nil {
		t.Fatalf("controller failed on unavailable device: %v", err)
	}

	// A write the switch actively rejects is still fatal.
	// (Separate sub-check below via failNext in other tests; here we heal.)
	dp.setUnavailable(false)
	transact(t, mp, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
	}))
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Err(); err != nil {
		t.Fatalf("controller failed after device healed: %v", err)
	}

	// The resync includes the updates missed during the outage: p1's
	// entry was never written to the device, but it is in desired state.
	tr := newFakeTR()
	if err := ctrl.Resync("dev0", tr); err != nil {
		t.Fatalf("resync: %v", err)
	}
	var sawP1 bool
	for _, e := range tr.entries {
		if e.Table == "in_vlan" {
			for _, m := range e.Matches {
				if m.Value == 1 {
					sawP1 = true
				}
			}
		}
	}
	if !sawP1 {
		t.Fatalf("resync missing entry for port written during outage")
	}
	if got := counterValue(t, o, "core_resyncs_total"); got != 1 {
		t.Fatalf("core_resyncs_total = %d, want 1", got)
	}
	if got := counterValue(t, o, "core_push_errors_total"); got == 0 {
		t.Fatalf("core_push_errors_total = 0, want > 0")
	}
}

// TestPushStillFailsOnRejectedWrite: a non-unavailable write error (the
// switch rejected the update) still stops the controller.
func TestPushStillFailsOnRejectedWrite(t *testing.T) {
	mp, dp := newFakes(t)
	ctrl := startCtrl(t, mp, dp)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	dp.mu.Lock()
	dp.failNext = true
	dp.mu.Unlock()
	transact(t, mp,
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
	)
	deadlineErr := waitErr(t, ctrl)
	var fe *failErr
	if !errors.As(deadlineErr, &fe) {
		t.Fatalf("controller error = %v, want injected write failure", deadlineErr)
	}
}

// pipeSwitch serves a strict modelDevice over p4rt on in-memory pipes,
// so a p4rt.ResilientClient dials it and reconnects through the hook the
// controller installs. While down it refuses dials; going down cuts
// every live session.
type pipeSwitch struct {
	info *p4.P4Info
	srv  *p4rt.Server

	mu   sync.Mutex
	dev  *modelDevice
	down bool
	live []net.Conn
}

func newPipeSwitch(t *testing.T, info *p4.P4Info) *pipeSwitch {
	sw := &pipeSwitch{info: info, dev: newModelDevice()}
	sw.srv = p4rt.NewServer(sw)
	t.Cleanup(sw.srv.Close)
	return sw
}

func (sw *pipeSwitch) P4Info() *p4.P4Info             { return sw.info }
func (sw *pipeSwitch) PacketOut(uint16, []byte) error { return nil }
func (sw *pipeSwitch) AckDigest(uint64)               {}

func (sw *pipeSwitch) Write(updates []p4rt.Update) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.dev.write(updates)
}

func (sw *pipeSwitch) ReadTable(table string) ([]p4rt.TableEntry, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.dev.read(table), nil
}

func (sw *pipeSwitch) dial(string) (io.ReadWriteCloser, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.down {
		return nil, errors.New("pipe switch down")
	}
	a, b := net.Pipe()
	sw.srv.ServeConn(a)
	sw.live = append(sw.live, b)
	return b, nil
}

func (sw *pipeSwitch) setDown(on bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.down = on
	if on {
		for _, c := range sw.live {
			c.Close()
		}
		sw.live = nil
	}
}

// holds reports whether the switch holds an in_vlan entry for port.
func (sw *pipeSwitch) holds(port uint64) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for _, e := range sw.dev.read("in_vlan") {
		for _, m := range e.Matches {
			if m.Value == port {
				return true
			}
		}
	}
	return false
}

// TestMissedWriteResyncsInsteadOfDelta: a device misses a delete while
// its connection is down and comes back holding the entry. The next
// delta re-inserts that entry, which the strict device would refuse as
// held, latching the controller, if the delta reached it first. The
// reconnect hook resyncs the device and publishes the session in one
// event-loop step, so the delta finds the device level.
func TestMissedWriteResyncsInsteadOfDelta(t *testing.T) {
	o := obs.NewObserver()
	mp, fake := newFakes(t)
	sw := newPipeSwitch(t, fake.info)
	dp, err := p4rt.DialResilient(p4rt.ResilientConfig{
		Addr: "sw", Dial: sw.dial, BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dp.Close() })
	port := ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
	})
	transact(t, mp, port)
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs", Obs: o}, mp, dp)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if !sw.holds(1) {
		t.Fatal("the takeover did not install p1")
	}

	sw.setDown(true)
	transact(t, mp, ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p1")))
	waitCounter(t, o, "core_push_errors_total", 1)
	sw.setDown(false)
	transact(t, mp, port)
	deadline := time.Now().Add(5 * time.Second)
	// The takeover's resync, then the reconnect's; and p1 back in place.
	for counterValue(t, o, "core_resyncs_total") < 2 || !sw.holds(1) {
		if err := ctrl.Err(); err != nil {
			t.Fatalf("controller failed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the device did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	n, err := ctrl.DriftCount("dev0", dp)
	if err != nil || n != 0 {
		t.Fatalf("drift after the reconnect = %d, %v; want 0", n, err)
	}
}

// counterValue reads a registered counter's current value (duplicate
// registration returns the existing series).
func counterValue(t *testing.T, o *obs.Observer, name string) uint64 {
	t.Helper()
	return o.Reg().Counter(name, "").Value()
}

// waitCounter polls until the counter reaches at least want.
func waitCounter(t *testing.T, o *obs.Observer, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if counterValue(t, o, name) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", name, counterValue(t, o, name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitErr polls until the controller records a failure.
func waitErr(t *testing.T, ctrl *Controller) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ctrl.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never failed")
		}
		time.Sleep(time.Millisecond)
	}
}

// reconnectingDP is a fake device with the OnReconnect method of
// p4rt.ResilientClient: it keeps the hook the controller installs.
type reconnectingDP struct {
	*fakeDP
	hook func(*p4rt.Client, func() bool) error
}

func (r *reconnectingDP) OnReconnect(f func(*p4rt.Client, func() bool) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hook = f
}

// trDevice serves a fakeTR over a p4rt server, so the hook gets the
// real *p4rt.Client a redial hands it.
type trDevice struct {
	*fakeTR
	info *p4.P4Info
}

func (d trDevice) P4Info() *p4.P4Info                    { return d.info }
func (d trDevice) Write(updates []p4rt.Update) error     { return d.fakeTR.Write(updates...) }
func (d trDevice) PacketOut(port uint16, b []byte) error { return nil }
func (d trDevice) AckDigest(uint64)                      {}

// TestControllerInstallsResyncHook: a device with an OnReconnect method
// gets the controller's Resync as its hook, under its own device id, with
// no wiring by the caller. Handing the hook a fresh session to an empty
// device restores the desired state through it.
func TestControllerInstallsResyncHook(t *testing.T) {
	mp, dp := newFakes(t)
	insertPorts(t, mp)
	rdp := &reconnectingDP{fakeDP: dp}
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs"}, mp, rdp)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	rdp.mu.Lock()
	hook := rdp.hook
	rdp.mu.Unlock()
	if hook == nil {
		t.Fatal("controller installed no OnReconnect hook")
	}

	tr := newFakeTR()
	srv := p4rt.NewServer(trDevice{tr, dp.info})
	defer srv.Close()
	a, b := net.Pipe()
	srv.ServeConn(a)
	cl := p4rt.NewClient(b)
	defer cl.Close()
	published := 0
	if err := hook(cl, func() bool { published++; return true }); err != nil {
		t.Fatalf("hook: %v", err)
	}
	if published != 1 {
		t.Fatalf("hook published the session %d times, want 1", published)
	}
	var inVlan int
	for _, e := range tr.entries {
		if e.Table == "in_vlan" {
			inVlan++
		}
	}
	if inVlan != 2 || len(tr.mcast) == 0 {
		t.Fatalf("hook left the device with %d in_vlan entries and %d groups, want 2 and some",
			inVlan, len(tr.mcast))
	}
}
