package switchsim

import (
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/packet"
	"repro/internal/snvs"
)

// l2Program is a minimal learning L2 switch: flood unknown destinations,
// forward known ones, emit a digest for unknown sources.
func l2Program() *p4.Program {
	return &p4.Program{
		Name: "l2",
		Headers: []*p4.HeaderType{
			{Name: "ethernet", Fields: []p4.HeaderField{
				{Name: "dst", Bits: 48}, {Name: "src", Bits: 48}, {Name: "etype", Bits: 16},
			}},
		},
		Parser: []*p4.ParserState{
			{Name: "start", Extract: "ethernet", Next: "accept"},
		},
		Actions: []*p4.Action{
			{Name: "forward", Params: []p4.ActionParam{{Name: "port", Bits: 9}}, Body: []p4.Stmt{
				&p4.Output{Port: &p4.ParamExpr{Index: 0}},
			}},
			{Name: "flood", Body: []p4.Stmt{
				&p4.Multicast{Group: &p4.ConstExpr{Value: 1}},
			}},
			{Name: "learn", Body: []p4.Stmt{
				&p4.EmitDigest{Digest: "mac_learn", Fields: []p4.Expr{
					&p4.FieldExpr{Ref: p4.FieldRef{Header: "ethernet", Field: "src"}},
					&p4.FieldExpr{Ref: p4.FieldRef{Header: p4.StdMetaHeader, Field: p4.FieldIngress}},
				}},
			}},
			{Name: "nop"},
		},
		Tables: []*p4.Table{
			{Name: "smac",
				Keys:          []p4.TableKey{{Ref: p4.FieldRef{Header: "ethernet", Field: "src"}, Match: p4.MatchExact}},
				Actions:       []string{"nop", "learn"},
				DefaultAction: p4.ActionCall{Action: "learn"},
			},
			{Name: "dmac",
				Keys:          []p4.TableKey{{Ref: p4.FieldRef{Header: "ethernet", Field: "dst"}, Match: p4.MatchExact}},
				Actions:       []string{"forward", "flood"},
				DefaultAction: p4.ActionCall{Action: "flood"},
			},
		},
		Digests: []*p4.Digest{
			{Name: "mac_learn", Fields: []p4.DigestField{
				{Name: "mac", Bits: 48}, {Name: "port", Bits: 9},
			}},
		},
		Ingress: &p4.Control{Name: "ingress", Apply: []p4.ControlStmt{
			&p4.ApplyTable{Table: "smac"},
			&p4.ApplyTable{Table: "dmac"},
		}},
		Deparser: []string{"ethernet"},
	}
}

func frame(dst, src packet.MAC) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: 0x1234}
	return append(e.Append(nil), 0xca, 0xfe)
}

func TestFabricFloodAndForward(t *testing.T) {
	sw, err := New("s1", Config{Program: l2Program()})
	if err != nil {
		t.Fatal(err)
	}
	sw.Runtime().SetMulticastGroup(1, []uint16{1, 2, 3})
	f := NewFabric()
	if err := f.AddSwitch(sw); err != nil {
		t.Fatal(err)
	}
	h1, err := f.AttachHost("h1", "s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := f.AttachHost("h2", "s1", 2)
	h3, _ := f.AttachHost("h3", "s1", 3)

	// Unknown destination: flood to all other ports.
	if err := h1.Send(frame(0xbb, 0xaa)); err != nil {
		t.Fatal(err)
	}
	if h1.ReceivedCount() != 0 {
		t.Errorf("sender received its own flood")
	}
	if h2.ReceivedCount() != 1 || h3.ReceivedCount() != 1 {
		t.Fatalf("flood counts: h2=%d h3=%d", h2.ReceivedCount(), h3.ReceivedCount())
	}
	h2.Received()
	h3.Received()

	// Install forwarding: dst 0xaa -> port 1; then h2 can unicast to h1.
	if err := sw.Write([]p4rt.Update{p4rt.InsertEntry(p4rt.TableEntry{
		Table: "dmac", Matches: []p4.FieldMatch{{Value: 0xaa}},
		Action: "forward", Params: []uint64{1},
	})}); err != nil {
		t.Fatal(err)
	}
	if err := h2.Send(frame(0xaa, 0xbb)); err != nil {
		t.Fatal(err)
	}
	if h1.ReceivedCount() != 1 || h3.ReceivedCount() != 0 {
		t.Fatalf("unicast counts: h1=%d h3=%d", h1.ReceivedCount(), h3.ReceivedCount())
	}
	st := sw.Stats(1)
	if st.RxPackets != 1 || st.TxPackets == 0 {
		t.Errorf("port 1 stats = %+v", st)
	}
}

func TestTwoSwitchTopology(t *testing.T) {
	s1, _ := New("s1", Config{Program: l2Program()})
	s2, _ := New("s2", Config{Program: l2Program()})
	s1.Runtime().SetMulticastGroup(1, []uint16{1, 2})
	s2.Runtime().SetMulticastGroup(1, []uint16{1, 2})
	f := NewFabric()
	f.AddSwitch(s1)
	f.AddSwitch(s2)
	// h1 -- s1:p1, s1:p2 -- s2:p1, s2:p2 -- h2
	h1, err := f.AttachHost("h1", "s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LinkSwitches("s1", 2, "s2", 1); err != nil {
		t.Fatal(err)
	}
	h2, err := f.AttachHost("h2", "s2", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Flood crosses the inter-switch link.
	if err := h1.Send(frame(0xbb, 0xaa)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 1 {
		t.Fatalf("h2 received %d frames", h2.ReceivedCount())
	}
	// Link failure: traffic stops.
	f.Unlink("s1", 2)
	h2.Received()
	h1.Send(frame(0xbb, 0xaa))
	if h2.ReceivedCount() != 0 {
		t.Fatalf("frame crossed a failed link")
	}
}

func TestWriteAtomicRollback(t *testing.T) {
	sw, _ := New("s1", Config{Program: l2Program()})
	err := sw.Write([]p4rt.Update{
		p4rt.InsertEntry(p4rt.TableEntry{
			Table: "dmac", Matches: []p4.FieldMatch{{Value: 0xaa}},
			Action: "forward", Params: []uint64{1},
		}),
		p4rt.InsertEntry(p4rt.TableEntry{
			Table: "nope", Matches: []p4.FieldMatch{{Value: 1}},
			Action: "forward", Params: []uint64{1},
		}),
	})
	if err == nil {
		t.Fatalf("bad batch succeeded")
	}
	if sw.Runtime().EntryCount("dmac") != 0 {
		t.Fatalf("failed batch left %d entries", sw.Runtime().EntryCount("dmac"))
	}
	// Insert of an existing entry fails; modify succeeds.
	e := p4rt.TableEntry{Table: "dmac", Matches: []p4.FieldMatch{{Value: 0xaa}},
		Action: "forward", Params: []uint64{1}}
	if err := sw.Write([]p4rt.Update{p4rt.InsertEntry(e)}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Write([]p4rt.Update{p4rt.InsertEntry(e)}); err == nil {
		t.Fatalf("duplicate insert succeeded")
	}
	e.Params = []uint64{2}
	if err := sw.Write([]p4rt.Update{p4rt.ModifyEntry(e)}); err != nil {
		t.Fatalf("modify failed: %v", err)
	}
	entries, _ := sw.ReadTable("dmac")
	if len(entries) != 1 || entries[0].Params[0] != 2 {
		t.Fatalf("entries after modify = %+v", entries)
	}
	if err := sw.Write([]p4rt.Update{p4rt.DeleteEntry(e)}); err != nil {
		t.Fatalf("delete failed: %v", err)
	}
	if err := sw.Write([]p4rt.Update{p4rt.ModifyEntry(e)}); err == nil {
		t.Fatalf("modify of missing entry succeeded")
	}
}

// startP4RT serves a switch over TCP and returns a connected client.
func startP4RT(t *testing.T, sw *Switch) *p4rt.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sw.Serve(ln)
	t.Cleanup(sw.Close)
	client, err := p4rt.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestP4RTEndToEnd(t *testing.T) {
	sw, _ := New("s1", Config{Program: l2Program()})
	f := NewFabric()
	f.AddSwitch(sw)
	h1, _ := f.AttachHost("h1", "s1", 1)
	h2, _ := f.AttachHost("h2", "s1", 2)
	_ = h2
	client := startP4RT(t, sw)

	info, err := client.GetP4Info()
	if err != nil {
		t.Fatalf("GetP4Info: %v", err)
	}
	if info.Program != "l2" || info.Table("dmac") == nil {
		t.Fatalf("p4info = %+v", info)
	}
	// Program the pipeline over the wire: multicast group + an entry.
	if err := client.Write(
		p4rt.SetMulticast(1, []uint16{1, 2}),
		p4rt.InsertEntry(p4rt.TableEntry{
			Table: "dmac", Matches: []p4.FieldMatch{{Value: 0xaa}},
			Action: "forward", Params: []uint64{1},
		}),
	); err != nil {
		t.Fatalf("Write: %v", err)
	}
	entries, err := client.ReadTable("dmac")
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadTable = %v, %v", entries, err)
	}
	// Digest stream: unknown source triggers mac_learn.
	digests := make(chan p4rt.DigestList, 4)
	client.OnDigest(func(dl p4rt.DigestList) { digests <- dl })
	if err := h1.Send(frame(0xaa, 0xcc)); err != nil {
		t.Fatal(err)
	}
	select {
	case dl := <-digests:
		if dl.Digest != "mac_learn" || len(dl.Messages) != 1 {
			t.Fatalf("digest = %+v", dl)
		}
		if dl.Messages[0][0] != 0xcc || dl.Messages[0][1] != 1 {
			t.Fatalf("digest fields = %v", dl.Messages[0])
		}
		// Auto-ack must reach the switch.
		deadline := time.Now().Add(2 * time.Second)
		for !sw.DigestAcked(dl.ListID) {
			if time.Now().After(deadline) {
				t.Fatalf("digest never acked")
			}
			time.Sleep(time.Millisecond)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no digest received")
	}
	// PacketOut reaches the host directly.
	if err := client.PacketOut(1, frame(0x1, 0x2)); err != nil {
		t.Fatalf("PacketOut: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h1.ReceivedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("packet-out never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// Write errors surface as RPC errors.
	if err := client.Write(p4rt.InsertEntry(p4rt.TableEntry{
		Table: "nope", Action: "forward",
	})); err == nil {
		t.Fatalf("bad write succeeded")
	}
}

func TestFabricErrors(t *testing.T) {
	f := NewFabric()
	sw, _ := New("s1", Config{Program: l2Program()})
	if err := f.AddSwitch(sw); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSwitch(sw); err == nil {
		t.Errorf("duplicate switch accepted")
	}
	if _, err := f.AttachHost("h", "nope", 1); err == nil {
		t.Errorf("host on unknown switch accepted")
	}
	if _, err := f.AttachHost("h", "s1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachHost("h", "s1", 2); err == nil {
		t.Errorf("duplicate host name accepted")
	}
	if _, err := f.AttachHost("h2", "s1", 1); err == nil {
		t.Errorf("port reuse accepted")
	}
	if err := f.LinkSwitches("s1", 1, "nope", 1); err == nil {
		t.Errorf("link to unknown switch accepted")
	}
}

func TestCountersOverP4RT(t *testing.T) {
	sw, _ := New("s1", Config{Program: l2Program()})
	f := NewFabric()
	f.AddSwitch(sw)
	h1, _ := f.AttachHost("h1", "s1", 1)
	client := startP4RT(t, sw)
	if err := client.Write(p4rt.SetMulticast(1, []uint16{1, 2})); err != nil {
		t.Fatal(err)
	}
	// One flood: dmac misses, smac misses (learn digest).
	if err := h1.Send(frame(0xbb, 0xaa)); err != nil {
		t.Fatal(err)
	}
	c, err := client.ReadCounters("dmac")
	if err != nil {
		t.Fatalf("ReadCounters: %v", err)
	}
	if c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("dmac counters = %+v", c)
	}
	if _, err := client.ReadCounters("nope"); err == nil {
		t.Fatalf("unknown table counters succeeded")
	}
}

// knownUnicastSwitch loads snvs with one access VLAN whose two hosts know
// each other and returns a frame from the host on port 1 to the one on
// port 2.
func knownUnicastSwitch(t testing.TB) (*Switch, []byte) {
	sw, err := New("s1", Config{Program: snvs.Pipeline()})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(table string, keys []uint64, action string, params ...uint64) p4rt.Update {
		e := p4rt.TableEntry{Table: table, Action: action, Params: params}
		for _, k := range keys {
			e.Matches = append(e.Matches, p4.FieldMatch{Value: k})
		}
		return p4rt.InsertEntry(e)
	}
	if err := sw.Write([]p4rt.Update{
		entry("in_vlan", []uint64{1}, "set_vlan", 10),
		entry("vlan_ok", []uint64{1, 10}, "vlan_allow"),
		entry("smac", []uint64{10, 0xaa}, "known"),
		entry("dmac", []uint64{10, 0xbb}, "forward", 2),
		entry("strip_tag", []uint64{2}, "pop_tag"),
	}); err != nil {
		t.Fatal(err)
	}
	return sw, frame(0xbb, 0xaa)
}

// TestInjectKnownUnicastZeroAlloc: forwarding a known-unicast frame to an
// installed output handler allocates nothing.
func TestInjectKnownUnicastZeroAlloc(t *testing.T) {
	sw, fr := knownUnicastSwitch(t)
	var got int
	sw.SetOutputHandler(func(port uint16, data []byte) {
		if port == 2 && len(data) == len(fr) {
			got++
		}
	})
	if n := testing.AllocsPerRun(1000, func() { sw.Inject(1, fr) }); n != 0 {
		t.Fatalf("Inject allocates %v per known-unicast frame", n)
	}
	if got == 0 {
		t.Fatalf("no frame reached port 2")
	}
}

// TestInjectReentrant: frames reach the output handler after the
// pipeline's lock is released, so a handler can wait for a table write
// and then inject into the same switch. Injectors running beside a writer
// share the pooled packet state under the race detector.
func TestInjectReentrant(t *testing.T) {
	sw, fr := knownUnicastSwitch(t)
	rt := sw.Runtime()
	var reinjected atomic.Int64
	sw.SetOutputHandler(func(port uint16, data []byte) {
		if data[5] == 0xcc {
			reinjected.Add(1)
		}
		if data[5] != 0xbb || reinjected.Load() > 0 {
			return
		}
		done := make(chan error, 1)
		go func() {
			done <- rt.InsertEntry("dmac", p4.Entry{
				Matches: []p4.FieldMatch{{Value: 10}, {Value: 0xcc}},
				Action:  "forward", Params: []uint64{2},
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Error("InsertEntry blocked while the output handler ran")
			return
		}
		sw.Inject(1, frame(0xcc, 0xaa))
	})
	if err := sw.Inject(1, fr); err != nil {
		t.Fatal(err)
	}
	if reinjected.Load() != 1 {
		t.Fatalf("re-injected frame delivered %d times", reinjected.Load())
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := []p4.FieldMatch{{Value: 10}, {Value: 0xdd}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				rt.InsertEntry("dmac", p4.Entry{Matches: m, Action: "forward", Params: []uint64{2}})
			} else {
				rt.DeleteEntry("dmac", m)
			}
		}
	}()
	var inj sync.WaitGroup
	for g := 0; g < 4; g++ {
		inj.Add(1)
		go func() {
			defer inj.Done()
			for i := 0; i < 500; i++ {
				sw.Inject(1, frame(0xdd, 0xaa))
				sw.Inject(1, fr)
			}
		}()
	}
	inj.Wait()
	close(stop)
	wg.Wait()
	if st := sw.Stats(2); st.TxPackets < 4*500 {
		t.Fatalf("port 2 sent %d frames, want at least %d", st.TxPackets, 4*500)
	}
}

// TestWriteAllocatesOnlyStoredState: a one-insert Write allocates only
// what the switch keeps, the installed entry and the key it is stored
// under, and the Write that deletes it allocates nothing: the lookups
// build no key string and the undo log is scratch.
func TestWriteAllocatesOnlyStoredState(t *testing.T) {
	sw, err := New("s1", Config{Program: l2Program()})
	if err != nil {
		t.Fatal(err)
	}
	e := p4rt.TableEntry{Table: "dmac", Matches: []p4.FieldMatch{{Value: 0xaa}},
		Action: "forward", Params: []uint64{1}}
	ins, del := []p4rt.Update{p4rt.InsertEntry(e)}, []p4rt.Update{p4rt.DeleteEntry(e)}
	if n := testing.AllocsPerRun(200, func() {
		if sw.Write(ins) != nil || sw.Write(del) != nil {
			t.Fatal("write failed")
		}
	}); n > 2 {
		t.Fatalf("insert + delete allocate %v, want ≤ 2 (the entry and its key)", n)
	}
}

// TestDigestListsInOrder: the lists of frames injected one after
// another reach the controller in ListID order, and the controller's
// ack of the last one acknowledges every list.
func TestDigestListsInOrder(t *testing.T) {
	const n = 2000
	sw, err := New("s1", Config{Program: l2Program()})
	if err != nil {
		t.Fatal(err)
	}
	client := startP4RT(t, sw)
	var mu sync.Mutex
	var ids []uint64
	all := make(chan struct{})
	client.OnDigest(func(dl p4rt.DigestList) {
		mu.Lock()
		defer mu.Unlock()
		if ids = append(ids, dl.ListID); len(ids) == n {
			close(all)
		}
	})
	for deadline := time.Now().Add(5 * time.Second); sw.srv.Conns() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the switch never accepted the client")
		}
	}
	for i := range n {
		sw.Inject(1, frame(0xffffffffffff, packet.MAC(0x020000000000+i)))
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d lists arrived", len(ids), n)
	}
	mu.Lock()
	late, highest := 0, uint64(0)
	for _, id := range ids {
		if id < highest {
			late++
		}
		highest = max(highest, id)
	}
	mu.Unlock()
	if late != 0 {
		t.Fatalf("%d of %d lists arrived behind a higher ListID", late, n)
	}
	for deadline := time.Now().Add(5 * time.Second); !sw.DigestAcked(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the last list was never acked")
		}
	}
	if !sw.DigestAcked(1) || sw.DigestAcked(n+1) {
		t.Fatal("the ack of the last list does not cover exactly the lists sent")
	}
}

// TestAckDigestZeroAlloc: recording an ack allocates nothing, however
// many lists the switch has sent.
func TestAckDigestZeroAlloc(t *testing.T) {
	sw, err := New("s1", Config{Program: l2Program()})
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	if n := testing.AllocsPerRun(1000, func() { id++; sw.AckDigest(id) }); n != 0 {
		t.Fatalf("AckDigest allocates %v", n)
	}
	if !sw.DigestAcked(id) {
		t.Fatalf("list %d not acked", id)
	}
}

// TestReadTableRoundTripsEveryMatchKind: entries of every match kind,
// written over P4Runtime and read back, come back equal to what was
// written, members left zero included. The resync's drift keys both the
// entries it reads and the ones it derives by their matches, so a
// match that did not survive the round trip would read as drift.
func TestReadTableRoundTripsEveryMatchKind(t *testing.T) {
	prog, err := p4.ParseProgram("kinds", `
		header h { bit<8> a; bit<8> b; bit<32> dst; }
		parser { state start { extract(h); transition accept; } }
		control Ingress {
			action fwd(bit<16> p) { output(p); }
			table acl { key = { h.a: ternary; h.b: optional; } actions = { fwd; } }
			table route { key = { h.dst: lpm; } actions = { fwd; } }
			apply { acl.apply(); route.apply(); }
		}
		deparser { emit(h); }`)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New("s1", Config{Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	client := startP4RT(t, sw)
	written := map[string][]p4rt.TableEntry{
		"acl": {
			{Table: "acl", Matches: []p4.FieldMatch{{Value: 0x10, Mask: 0xf0}, {Value: 7}}, Priority: 2, Action: "fwd", Params: []uint64{1}},
			{Table: "acl", Matches: []p4.FieldMatch{{}, {Wildcard: true}}, Priority: 1, Action: "fwd", Params: []uint64{2}},
		},
		"route": {
			{Table: "route", Matches: []p4.FieldMatch{{Value: 0x0a000100, PrefixLen: 24}}, Action: "fwd", Params: []uint64{3}},
			{Table: "route", Matches: []p4.FieldMatch{{}}, Action: "fwd", Params: []uint64{4}},
		},
	}
	var updates []p4rt.Update
	for _, es := range written {
		for _, e := range es {
			updates = append(updates, p4rt.InsertEntry(e))
		}
	}
	if err := client.Write(updates...); err != nil {
		t.Fatal(err)
	}
	for table, want := range written {
		got, err := client.ReadTable(table)
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(got, func(a, b p4rt.TableEntry) int { return int(a.Params[0]) - int(b.Params[0]) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ReadTable(%s) = %+v, wrote %+v", table, got, want)
		}
	}
}

// startInjector injects fr on port in a loop in a goroutine and returns
// once the first frame is in, with a function that stops it and returns
// how many frames were injected.
func startInjector(t *testing.T, sw *Switch, port uint16, fr []byte) (stop func() int64) {
	t.Helper()
	var injected atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sw.Inject(port, fr)
			injected.Add(1)
		}
	}()
	for injected.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	return func() int64 {
		close(done)
		wg.Wait()
		return injected.Load()
	}
}

// TestFailedWriteInvisibleToPackets: no packet sees an entry of a write
// that fails. Each write installs dmac 0xaa → port 1 first, then 2,000
// other entries, then an insert into a missing table, so every write
// fails and is undone. Frames to 0xaa injected on port 2 throughout must
// all flood (group 1 is ports 2 and 3), and none may leave on port 1.
func TestFailedWriteInvisibleToPackets(t *testing.T) {
	sw, err := New("s1", Config{Program: l2Program()})
	if err != nil {
		t.Fatal(err)
	}
	sw.Runtime().SetMulticastGroup(1, []uint16{2, 3})
	// A known source: the frames emit no learning digest.
	if err := sw.Runtime().InsertEntry("smac", p4.Entry{
		Matches: []p4.FieldMatch{{Value: 0xbb}}, Action: "nop"}); err != nil {
		t.Fatal(err)
	}
	dmac := func(mac, port uint64) p4rt.Update {
		return p4rt.InsertEntry(p4rt.TableEntry{Table: "dmac",
			Matches: []p4.FieldMatch{{Value: mac}}, Action: "forward", Params: []uint64{port}})
	}
	batch := []p4rt.Update{dmac(0xaa, 1)}
	for i := range 2000 {
		batch = append(batch, dmac(0x020000000000+uint64(i), 3))
	}
	batch = append(batch, p4rt.InsertEntry(p4rt.TableEntry{Table: "nope",
		Matches: []p4.FieldMatch{{Value: 1}}, Action: "forward", Params: []uint64{1}}))

	stop := startInjector(t, sw, 2, frame(0xaa, 0xbb))
	failed := 0
	for range 50 {
		if sw.Write(batch) != nil {
			failed++
		}
	}
	injected := stop()
	if failed != 50 {
		t.Fatalf("%d of 50 writes failed, want all", failed)
	}
	if n := sw.Runtime().EntryCount("dmac"); n != 0 {
		t.Fatalf("failed writes left %d dmac entries", n)
	}
	if n := sw.Stats(1).TxPackets; n != 0 {
		t.Fatalf("port 1 emitted %d of %d frames through entries of failed writes", n, injected)
	}
	t.Logf("%d frames injected beside 50 failed writes", injected)
	if n := sw.Stats(3).TxPackets; n != uint64(injected) {
		t.Fatalf("port 3 flooded %d of %d frames", n, injected)
	}
}

// TestBatchAllOrNothingUnderTraffic: a successful two-table snvs write
// moves port 1 between VLAN 10 and VLAN 20 (its in_vlan entry and its
// vlan_ok admission together) while frames from port 1 flood. VLAN 10
// floods to port 2 and VLAN 20 to port 3; a frame that met one table of
// the old configuration and the other of the new would be in a VLAN its
// port is not admitted to, and dropped. Every frame must leave on
// exactly one of ports 2 and 3, and none may drop.
func TestBatchAllOrNothingUnderTraffic(t *testing.T) {
	sw, err := New("s1", Config{Program: snvs.Pipeline()})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(table string, keys []uint64, action string, params ...uint64) p4rt.TableEntry {
		e := p4rt.TableEntry{Table: table, Action: action, Params: params}
		for _, k := range keys {
			e.Matches = append(e.Matches, p4.FieldMatch{Value: k})
		}
		return e
	}
	if err := sw.Write([]p4rt.Update{
		p4rt.SetMulticast(100, []uint16{2}),
		p4rt.SetMulticast(200, []uint16{3}),
		p4rt.InsertEntry(entry("flood", []uint64{10}, "set_mcast", 100)),
		p4rt.InsertEntry(entry("flood", []uint64{20}, "set_mcast", 200)),
		p4rt.InsertEntry(entry("smac", []uint64{10, 0xaa}, "known")),
		p4rt.InsertEntry(entry("smac", []uint64{20, 0xaa}, "known")),
		p4rt.InsertEntry(entry("strip_tag", []uint64{2}, "pop_tag")),
		p4rt.InsertEntry(entry("strip_tag", []uint64{3}, "pop_tag")),
		p4rt.InsertEntry(entry("in_vlan", []uint64{1}, "set_vlan", 10)),
		p4rt.InsertEntry(entry("vlan_ok", []uint64{1, 10}, "vlan_allow")),
	}); err != nil {
		t.Fatal(err)
	}
	move := func(from, to uint64) []p4rt.Update {
		return []p4rt.Update{
			p4rt.ModifyEntry(entry("in_vlan", []uint64{1}, "set_vlan", to)),
			p4rt.DeleteEntry(entry("vlan_ok", []uint64{1, from}, "vlan_allow")),
			p4rt.InsertEntry(entry("vlan_ok", []uint64{1, to}, "vlan_allow")),
		}
	}
	toNew, toOld := move(10, 20), move(20, 10)

	stop := startInjector(t, sw, 1, frame(0xffffffffffff, 0xaa))
	for i := range 400 {
		batch := toNew
		if i%2 == 1 {
			batch = toOld
		}
		if err := sw.Write(batch); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	injected := stop()
	old, cur := sw.Stats(2).TxPackets, sw.Stats(3).TxPackets
	if d := sw.Dropped(); d != 0 || old+cur != uint64(injected) {
		t.Fatalf("%d frames injected: %d by the old configuration, %d by the new, %d dropped by a mix of both",
			injected, old, cur, d)
	}
}

// BenchmarkWriteUnderTraffic prices a write while a goroutine injects
// known-unicast frames through the switch: ns/op is one write of n dmac
// updates (the inserts of n entries and their deletes, alternately),
// frames/s the injector's rate while the writes run, and p99-frame-ns
// the 99th percentile of one Inject's latency. 64 updates is a
// mac_learning write, 5,800 a bulk_reconfig one.
func BenchmarkWriteUnderTraffic(b *testing.B) {
	for _, n := range []int{64, 5800} {
		b.Run(fmt.Sprintf("updates=%d", n), func(b *testing.B) {
			sw, fr := knownUnicastSwitch(b)
			ins, del := make([]p4rt.Update, n), make([]p4rt.Update, n)
			for i := range n {
				e := p4rt.TableEntry{Table: "dmac", Action: "forward", Params: []uint64{2},
					Matches: []p4.FieldMatch{{Value: 10}, {Value: 0x020000000000 + uint64(i)}}}
				ins[i], del[i] = p4rt.InsertEntry(e), p4rt.DeleteEntry(e)
			}
			// The newest latencies, a ring: the run's steady state.
			lat := make([]time.Duration, 1<<18)
			var frames atomic.Int64
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					sw.Inject(1, fr)
					lat[i%len(lat)] = time.Since(t0)
					frames.Add(1)
				}
			}()
			for frames.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			start, from := time.Now(), frames.Load()
			for i := 0; i < b.N; i++ {
				batch := ins
				if i%2 == 1 {
					batch = del
				}
				if err := sw.Write(batch); err != nil {
					b.Fatal(err)
				}
			}
			elapsed, injected := time.Since(start), frames.Load()-from
			b.StopTimer()
			close(stop)
			<-done
			b.ReportMetric(float64(injected)/elapsed.Seconds(), "frames/s")
			if got := frames.Load(); got < int64(len(lat)) {
				lat = lat[:got]
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-frame-ns")
		})
	}
}
