package p4rt

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsonrpc"
	"repro/internal/p4"
)

// fakeDevice records every call so the tests can assert the wire protocol
// end to end without a full switch simulator behind it.
type fakeDevice struct {
	mu       sync.Mutex
	info     *p4.P4Info
	writes   [][]Update
	packets  []PacketOut
	acks     []uint64
	failNext bool
	counters map[string]p4.TableCounters
	fault    atomic.Pointer[func([]Update) error]
}

// SetWriteFault installs a hook that runs at the start of every Write,
// as switchsim's does: a non-nil return fails the write, and the hook
// may sleep to stall it.
func (d *fakeDevice) SetWriteFault(f func([]Update) error) { d.fault.Store(&f) }

func (d *fakeDevice) P4Info() *p4.P4Info { return d.info }

func (d *fakeDevice) Write(updates []Update) error {
	if f := d.fault.Load(); f != nil && *f != nil {
		if err := (*f)(updates); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failNext {
		d.failNext = false
		return errors.New("injected write failure")
	}
	d.writes = append(d.writes, updates)
	return nil
}

func (d *fakeDevice) ReadTable(table string) ([]TableEntry, error) {
	if table == "ghost" {
		return nil, errors.New("no such table")
	}
	return []TableEntry{{Table: table, Action: "fwd", Params: []uint64{7}}}, nil
}

func (d *fakeDevice) PacketOut(port uint16, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.packets = append(d.packets, PacketOut{Port: port, Data: data})
	return nil
}

func (d *fakeDevice) AckDigest(listID uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.acks = append(d.acks, listID)
}

// Counters implements the optional CounterReader extension.
func (d *fakeDevice) Counters(table string) (p4.TableCounters, bool) {
	c, ok := d.counters[table]
	return c, ok
}

func startServer(t *testing.T, dev Device) (*Server, string) {
	t.Helper()
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// One round trip, so the server has accepted and registered the
	// connection before a test calls NotifyDigest/NotifyPacketIn on it.
	if _, err := c.GetP4Info(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (d *fakeDevice) lastWrite() []Update {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.writes) == 0 {
		return nil
	}
	return d.writes[len(d.writes)-1]
}

func TestClientServerRoundTrip(t *testing.T) {
	dev := &fakeDevice{
		info: &p4.P4Info{Program: "fake"},
		counters: map[string]p4.TableCounters{
			"t": {Hits: 3, Misses: 1},
		},
	}
	_, addr := startServer(t, dev)
	c := dialT(t, addr)

	info, err := c.GetP4Info()
	if err != nil || info.Program != "fake" {
		t.Fatalf("GetP4Info = %+v, %v", info, err)
	}

	// Write carries every update shape over the wire intact.
	entry := TableEntry{
		Table:   "t",
		Matches: []p4.FieldMatch{{Value: 0xfeed, PrefixLen: 24, Mask: 0xff, Wildcard: false}},
		Action:  "fwd", Params: []uint64{9}, Priority: 5,
	}
	if err := c.Write(
		InsertEntry(entry),
		ModifyEntry(entry),
		DeleteEntry(entry),
		SetMulticast(4096, []uint16{1, 2, 3}),
	); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := dev.lastWrite()
	if len(got) != 4 {
		t.Fatalf("device saw %d updates", len(got))
	}
	if got[0].Type != UpdateInsert || got[1].Type != UpdateModify || got[2].Type != UpdateDelete {
		t.Fatalf("update types = %v %v %v", got[0].Type, got[1].Type, got[2].Type)
	}
	if e := got[1].Entry; e == nil || e.Table != "t" || e.Priority != 5 ||
		len(e.Matches) != 1 || e.Matches[0].Value != 0xfeed ||
		e.Matches[0].PrefixLen != 24 || e.Matches[0].Mask != 0xff {
		t.Fatalf("entry mangled in transit: %+v", got[1].Entry)
	}
	if g := got[3].Multicast; g == nil || g.Group != 4096 || len(g.Ports) != 3 {
		t.Fatalf("multicast mangled: %+v", got[3].Multicast)
	}

	entries, err := c.ReadTable("t")
	if err != nil || len(entries) != 1 || entries[0].Params[0] != 7 {
		t.Fatalf("ReadTable = %+v, %v", entries, err)
	}

	if err := c.PacketOut(4, []byte{0xde, 0xad}); err != nil {
		t.Fatalf("PacketOut: %v", err)
	}
	waitCond(t, func() bool {
		dev.mu.Lock()
		defer dev.mu.Unlock()
		return len(dev.packets) == 1
	})
	dev.mu.Lock()
	po := dev.packets[0]
	dev.mu.Unlock()
	if po.Port != 4 || len(po.Data) != 2 || po.Data[0] != 0xde {
		t.Fatalf("packet out mangled: %+v", po)
	}

	counters, err := c.ReadCounters("t")
	if err != nil || counters.Hits != 3 || counters.Misses != 1 {
		t.Fatalf("ReadCounters = %+v, %v", counters, err)
	}
}

func TestServerErrorPaths(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	_, addr := startServer(t, dev)
	c := dialT(t, addr)

	dev.failNext = true
	err := c.Write(InsertEntry(TableEntry{Table: "t"}))
	if err == nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("Write err = %v", err)
	}
	if _, err := c.ReadTable("ghost"); err == nil {
		t.Fatal("ReadTable(ghost) succeeded")
	}
	// The fake has a counters map but no entry for this table.
	if _, err := c.ReadCounters("ghost"); err == nil {
		t.Fatal("ReadCounters(ghost) succeeded")
	}
}

// noCounterDevice wraps a fakeDevice but does NOT implement CounterReader.
type noCounterDevice struct{ d *fakeDevice }

func (n *noCounterDevice) P4Info() *p4.P4Info                       { return n.d.P4Info() }
func (n *noCounterDevice) Write(u []Update) error                   { return n.d.Write(u) }
func (n *noCounterDevice) ReadTable(t string) ([]TableEntry, error) { return n.d.ReadTable(t) }
func (n *noCounterDevice) PacketOut(p uint16, b []byte) error       { return n.d.PacketOut(p, b) }
func (n *noCounterDevice) AckDigest(id uint64)                      { n.d.AckDigest(id) }

func TestReadCountersUnimplemented(t *testing.T) {
	dev := &noCounterDevice{d: &fakeDevice{info: &p4.P4Info{Program: "bare"}}}
	_, addr := startServer(t, dev)
	c := dialT(t, addr)
	_, err := c.ReadCounters("t")
	if err == nil || !strings.Contains(err.Error(), "unimplemented") {
		t.Fatalf("ReadCounters on bare device = %v", err)
	}
}

func TestDigestAutoAck(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c := dialT(t, addr)

	var mu sync.Mutex
	var got []DigestList
	c.OnDigest(func(dl DigestList) {
		mu.Lock()
		got = append(got, dl)
		mu.Unlock()
	})
	srv.NotifyDigest(DigestList{Digest: "learn", ListID: 42,
		Messages: [][]uint64{{1, 2}, {3, 4}}})
	waitCond(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	dl := got[0]
	mu.Unlock()
	if dl.Digest != "learn" || len(dl.Messages) != 2 || dl.Messages[1][1] != 4 {
		t.Fatalf("digest mangled: %+v", dl)
	}
	// Auto-ack is on by default: the device sees the ack without any
	// explicit AckDigest call.
	waitCond(t, func() bool {
		dev.mu.Lock()
		defer dev.mu.Unlock()
		return len(dev.acks) == 1 && dev.acks[0] == 42
	})
}

func TestDigestManualAck(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c := dialT(t, addr)
	c.SetAutoAck(false)

	seen := make(chan uint64, 1)
	c.OnDigest(func(dl DigestList) { seen <- dl.ListID })
	srv.NotifyDigest(DigestList{Digest: "learn", ListID: 7})
	select {
	case id := <-seen:
		if id != 7 {
			t.Fatalf("list id = %d", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("digest never delivered")
	}
	// No ack yet.
	time.Sleep(10 * time.Millisecond)
	dev.mu.Lock()
	n := len(dev.acks)
	dev.mu.Unlock()
	if n != 0 {
		t.Fatal("auto-ack fired despite SetAutoAck(false)")
	}
	if err := c.AckDigest(7); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool {
		dev.mu.Lock()
		defer dev.mu.Unlock()
		return len(dev.acks) == 1 && dev.acks[0] == 7
	})
}

func TestPacketInDelivery(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c := dialT(t, addr)

	seen := make(chan PacketIn, 1)
	c.OnPacketIn(func(pi PacketIn) { seen <- pi })
	srv.NotifyPacketIn(PacketIn{Port: 3, Data: []byte{1, 2, 3}})
	select {
	case pi := <-seen:
		if pi.Port != 3 || len(pi.Data) != 3 {
			t.Fatalf("packet-in mangled: %+v", pi)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet-in never delivered")
	}
}

func TestNotifyFansOutToAllControllers(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	c1.SetAutoAck(false)
	c2.SetAutoAck(false)

	var n sync.WaitGroup
	n.Add(2)
	for _, c := range []*Client{c1, c2} {
		once := sync.Once{}
		c.OnDigest(func(DigestList) { once.Do(n.Done) })
	}
	// A completed RPC round-trip guarantees the server has accepted and
	// registered the connection (Dial alone does not).
	for _, c := range []*Client{c1, c2} {
		if _, err := c.GetP4Info(); err != nil {
			t.Fatal(err)
		}
	}
	srv.NotifyDigest(DigestList{Digest: "learn", ListID: 1})
	done := make(chan struct{})
	go func() { n.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("digest not fanned out to both controllers")
	}
}

func TestClientDoneOnServerClose(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c := dialT(t, addr)
	srv.Close()
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client Done not signalled after server close")
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeTxnDevice is a fakeDevice that also implements TxnDevice,
// recording which transaction each attributed write arrived under.
type fakeTxnDevice struct {
	fakeDevice
	txns []uint64
}

func (d *fakeTxnDevice) WriteTxn(txn uint64, updates []Update) error {
	d.mu.Lock()
	d.txns = append(d.txns, txn)
	d.mu.Unlock()
	return d.Write(updates)
}

// TestWriteTxnWireForms pins the write RPC's one wire form: WriteTxn
// sends a WriteRequest object, which lands on the device's WriteTxn when
// it carries a txn and on Write when the txn is 0 (as for plain Write).
func TestWriteTxnWireForms(t *testing.T) {
	dev := &fakeTxnDevice{fakeDevice: fakeDevice{info: &p4.P4Info{Program: "fake"}}}
	_, addr := startServer(t, dev)
	c := dialT(t, addr)

	upd := InsertEntry(TableEntry{Table: "t", Action: "fwd", Params: []uint64{1}})
	if err := c.WriteTxn(42, upd); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTxn(0, upd); err != nil { // the object without its txn
		t.Fatal(err)
	}
	if err := c.Write(upd); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	writes, txns := len(dev.writes), append([]uint64(nil), dev.txns...)
	dev.mu.Unlock()
	if writes != 3 {
		t.Fatalf("device saw %d writes, want 3", writes)
	}
	if len(txns) != 1 || txns[0] != 42 {
		t.Fatalf("attributed txns = %v, want [42]", txns)
	}
}

// TestWriteTxnLegacyDevice checks the server-side fallback: a device
// without the TxnDevice extension still receives txn-stamped writes
// through plain Write, so new controllers interoperate with old
// switches.
func TestWriteTxnLegacyDevice(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	_, addr := startServer(t, dev)
	c := dialT(t, addr)

	upd := InsertEntry(TableEntry{Table: "t", Action: "fwd", Params: []uint64{1}})
	if err := c.WriteTxn(42, upd); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	writes := len(dev.writes)
	dev.mu.Unlock()
	if writes != 1 {
		t.Fatalf("legacy device saw %d writes, want 1", writes)
	}
}

// TestWriteRequestDecodeForms drives the server's params decode directly
// with raw JSON: object params decode as WriteRequest, with or without a
// txn and with leading whitespace, and a bare update array is refused.
func TestWriteRequestDecodeForms(t *testing.T) {
	for _, tc := range []struct {
		raw     string
		txn     uint64
		updates int
		bad     bool
	}{
		{raw: `{"txn":7,"updates":[]}`, txn: 7},
		{raw: `  {"txn":7}`, txn: 7},
		{raw: "\n\t{\"updates\":[]}"},
		{raw: `{"updates":[{"type":"insert"}]}`, updates: 1},
		{raw: ` {"updates":[{"type":"delete"},{"type":"insert"}]}`, updates: 2},
		{raw: ``, bad: true},
		{raw: "\n\t[]", bad: true},
		{raw: `[{"type":"insert"}]`, bad: true},
	} {
		updates, txn, err := parseWrite([]byte(tc.raw))
		if (err != nil) != tc.bad || txn != tc.txn || len(updates) != tc.updates {
			t.Errorf("parseWrite(%q) = %d updates, txn %d, err %v; want %d, %d, bad=%v",
				tc.raw, len(updates), txn, err, tc.updates, tc.txn, tc.bad)
		}
	}
	// A bare update array is not a WriteRequest: the server answers bad
	// params and writes nothing.
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv := NewServer(dev)
	defer srv.Close()
	if _, rpcErr := srv.handle(nil, "write", []byte(`[{"type":"insert","entry":{"table":"t","action":"a"}}]`)); rpcErr == nil || rpcErr.Code != "bad params" {
		t.Fatalf("bare-array write: error %v, want bad params", rpcErr)
	}
	if len(dev.writes) != 0 {
		t.Fatalf("bare-array write reached the device: %+v", dev.writes)
	}
}

// TestDigestTxnRoundTrip checks the digest txn watermark survives the
// notify wire format, and that a zero txn is omitted entirely (old-field
// compatibility).
func TestDigestTxnRoundTrip(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	c := dialT(t, addr)

	seen := make(chan DigestList, 2)
	c.OnDigest(func(dl DigestList) { seen <- dl })
	srv.NotifyDigest(DigestList{Digest: "learn", ListID: 1, Txn: 99})
	srv.NotifyDigest(DigestList{Digest: "learn", ListID: 2})
	for i := 0; i < 2; i++ {
		select {
		case dl := <-seen:
			want := uint64(0)
			if dl.ListID == 1 {
				want = 99
			}
			if dl.Txn != want {
				t.Fatalf("digest %d txn = %d, want %d", dl.ListID, dl.Txn, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("digest never delivered")
		}
	}
}

// TestStalledControllerIsFailedAtCap: a controller that stops reading
// its digests must cost the switch a bounded queue and then its
// connection (the resilient client redials), not memory without bound.
func TestStalledControllerIsFailedAtCap(t *testing.T) {
	srv := NewServer(&fakeDevice{info: &p4.P4Info{Program: "fake"}})
	defer srv.Close()
	a, b := net.Pipe() // nobody reads b
	defer b.Close()
	conn := srv.ServeConn(a)
	for i := 0; i < 2*writeLimit; i++ {
		srv.NotifyDigest(DigestList{Digest: "learn", ListID: uint64(i)})
		if n := conn.WriteQueueLen(); n > writeLimit {
			t.Fatalf("queue toward a stalled controller grew to %d, past the cap of %d", n, writeLimit)
		}
	}
	select {
	case <-conn.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("stalled controller still connected with %d messages queued", conn.WriteQueueLen())
	}
	if err := conn.Err(); !errors.Is(err, jsonrpc.ErrWriteOverflow) {
		t.Errorf("Err() = %v, want ErrWriteOverflow", err)
	}
}
