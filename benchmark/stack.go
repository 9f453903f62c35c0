package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dl/engine"
	"repro/internal/ovsdb"
	"repro/internal/ovsdb/wal"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
	"repro/internal/subscribe"
	"repro/internal/switchsim"
)

// The one controller configuration every workload runs with: coalescing
// as BENCH_throughput.json was measured, no observer.
const (
	coalesceMaxTxns    = 4096
	coalesceMaxUpdates = 8192
)

// Stage marks recorded on the traced op by the wrappers.
const (
	markAck        = iota // the originating call returned
	markDeliver           // monitor / digest callback entered
	markWriteIn           // DataPlane.Write entered
	markWriteOut          // DataPlane.Write returned
	markPublishIn         // Service.Publish entered
	markPublishOut        // Service.Publish returned
	numMarks
)

// wireCount sums the bytes one layer's client-side connections carry.
type wireCount struct{ rd, wr atomic.Int64 }

func (w *wireCount) total() int64 { return w.rd.Load() + w.wr.Load() }

// countConn is the pass-through stream handed to a layer's NewClient.
type countConn struct {
	net.Conn
	n *wireCount
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.rd.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.wr.Add(int64(n))
	return n, err
}

func dialCounted(addr string, n *wireCount) (countConn, error) {
	nc, err := net.Dial("tcp", addr)
	return countConn{nc, n}, err
}

// mgmtPlane is the pass-through core.ManagementPlane: it marks the
// moment a monitor update reaches the controller's callback.
type mgmtPlane struct {
	*ovsdb.Client
	st *stack
}

func (m mgmtPlane) Monitor(db string, id any, req map[string]*ovsdb.MonitorRequest, cb func(ovsdb.TableUpdates)) (ovsdb.TableUpdates, error) {
	return m.MonitorTxn(db, id, req, func(_ uint64, tu ovsdb.TableUpdates) { cb(tu) })
}

func (m mgmtPlane) MonitorTxn(db string, id any, req map[string]*ovsdb.MonitorRequest, cb func(uint64, ovsdb.TableUpdates)) (ovsdb.TableUpdates, error) {
	return m.Client.MonitorTxn(db, id, req, func(txn uint64, tu ovsdb.TableUpdates) {
		m.st.tr.mark(markDeliver)
		cb(txn, tu)
	})
}

// dataPlane is the pass-through core.DataPlane and the exact sink: a
// Write's return means the switch applied and acknowledged the batch.
type dataPlane struct {
	*p4rt.Client
	st *stack

	sink            atomic.Bool // ops sink here (false while subscriptions are the sink)
	writes, updates atomic.Int64

	capMu    sync.Mutex
	captured [][]p4rt.Update // batches of the traced pass, for the probes
}

func (d *dataPlane) OnDigest(f func(p4rt.DigestList)) {
	d.Client.OnDigest(func(dl p4rt.DigestList) {
		d.st.tr.mark(markDeliver)
		f(dl)
	})
}

func (d *dataPlane) Write(updates ...p4rt.Update) error {
	st := d.st
	st.tr.mark(markWriteIn)
	err := d.Client.Write(updates...)
	at := now()
	st.tr.mark(markWriteOut)
	d.writes.Add(1)
	d.updates.Add(int64(len(updates)))
	if st.tr.on.Load() {
		d.capMu.Lock()
		d.captured = append(d.captured, updates)
		d.capMu.Unlock()
	}
	if !d.sink.Load() {
		return err
	}
	for i := range updates {
		if key, ok := sinkKey(&updates[i]); ok {
			st.trk.hit(key, at, err == nil && st.holds(&updates[i]))
		}
	}
	return err
}

// sinkKey recognises the updates ops are identified by.
func sinkKey(u *p4rt.Update) (uint64, bool) {
	e := u.Entry
	if e == nil {
		return 0, false
	}
	switch {
	case e.Table == "in_vlan" && u.Type != p4rt.UpdateModify:
		return portKey(uint16(e.Matches[0].Value), u.Type == p4rt.UpdateInsert), true
	case e.Table == "smac" && u.Type == p4rt.UpdateInsert:
		return e.Matches[1].Value, true
	}
	return 0, false
}

// holds confirms an acknowledged update against the switch's tables.
func (st *stack) holds(u *p4rt.Update) bool {
	_, present := st.sw.Runtime().GetEntry(u.Entry.Table, u.Entry.Matches)
	return present == (u.Type == p4rt.UpdateInsert)
}

// stack is the whole snvs deployment in one process over loopback TCP.
type stack struct {
	trk *tracker
	tr  tracer

	sw   *switchsim.Switch
	ctrl *core.Controller
	dp   *dataPlane
	gens []*ovsdb.Client // the generator's connections
	fan  *fanout         // nil unless the workload subscribes

	walDir                     string
	ovsdbAddr                  string
	ovsdbWire, p4Wire, subWire wireCount

	// fwdOK counts frames between static hosts that left on the port the
	// destination sits on.
	fwdOK    atomic.Int64
	hostPort map[uint64]uint16

	closers []func()
}

// boot starts the deployment for a workload: OVSDB server (with a WAL if
// the workload has one), switch, controller, generator connections.
func boot(w *workload, nw *network, scratch string) (st *stack, err error) {
	st = &stack{trk: newTracker(), hostPort: make(map[uint64]uint16, len(nw.hosts))}
	for _, h := range nw.hosts {
		st.hostPort[h.MAC] = h.Port
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	schema, err := snvs.Schema()
	if err != nil {
		return nil, err
	}
	db := ovsdb.NewDatabase(schema)
	if w.wal {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { os.RemoveAll(dir) })
		// fsync off: disk sync latency is not measurable in this sandbox.
		log, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
		if err != nil {
			return nil, err
		}
		db.AttachWAL(log)
		st.closers = append(st.closers, func() { log.Close() })
	}
	srv := ovsdb.NewServer(db)
	ovsdbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ovsdbLn)
	st.closers = append(st.closers, srv.Close)
	ovsdbAddr := ovsdbLn.Addr().String()

	st.sw, err = switchsim.New("snvs0", switchsim.Config{Program: snvs.Pipeline()})
	if err != nil {
		return nil, err
	}
	st.sw.SetOutputHandler(st.checkOutput)
	p4Ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go st.sw.Serve(p4Ln)
	st.closers = append(st.closers, st.sw.Close)

	mpConn, err := dialCounted(ovsdbAddr, &st.ovsdbWire)
	if err != nil {
		return nil, err
	}
	mp := mgmtPlane{ovsdb.NewClient(mpConn), st}
	st.closers = append(st.closers, func() { mp.Close() })
	dpConn, err := dialCounted(p4Ln.Addr().String(), &st.p4Wire)
	if err != nil {
		return nil, err
	}
	st.dp = &dataPlane{Client: p4rt.NewClient(dpConn), st: st}
	st.dp.sink.Store(true)
	st.closers = append(st.closers, func() { st.dp.Close() })

	cfg := core.Config{
		Rules: snvs.Rules, Database: database,
		CoalesceMaxTxns: coalesceMaxTxns, CoalesceMaxUpdates: coalesceMaxUpdates,
	}
	if w.subs > 0 {
		st.fan = &fanout{st: st, svc: subscribe.New(subscribe.Config{})}
		cfg.OnDelta = st.fan.publish
	}
	st.ctrl, err = core.New(cfg, mp, st.dp)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, st.ctrl.Stop)

	for i := 0; i < w.clients; i++ {
		c, err := dialCounted(ovsdbAddr, &st.ovsdbWire)
		if err != nil {
			return nil, err
		}
		gen := ovsdb.NewClient(c)
		st.gens = append(st.gens, gen)
		st.closers = append(st.closers, func() { gen.Close() })
	}
	return st, nil
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// checkOutput is the switch's output handler: it counts the frames of
// the forwarding generator (static source) that leave on the right port.
func (st *stack) checkOutput(port uint16, data []byte) {
	dst, src := frameMACs(data)
	if _, static := st.hostPort[src]; static && st.hostPort[dst] == port {
		st.fwdOK.Add(1)
	}
}

// transact issues one op on a generator connection.
func (st *stack) transact(client int, o *opSpec) error {
	_, err := st.gens[client].TransactErr(database, o.transact()...)
	return err
}

// --- subscription fan-out ---------------------------------------------

// subRelations are the four relations every access-port commit touches,
// with the column holding the port and the column a filter can equate.
var subRelations = []struct {
	name               string
	portCol, filterCol int // filterCol -1: no column an op-independent filter could match
}{
	{"InVlan", 0, 1},
	{"VlanOk", 0, 1},
	{"MulticastGroup", 1, 0},
	{"StripTag", 0, -1},
}

// subscription is one open subscription and what it has received.
type subscription struct {
	sub      *subscribe.Subscription
	rel      int           // index into subRelations
	filtered bool          // equality filter on the churn VLAN / its group
	fp       atomic.Uint64 // XOR of rowHash over the snapshot and every delta row
}

// fanout is the pub/sub side of the deployment: the service on the
// controller's OnDelta tap and one client connection carrying every
// subscription.
type fanout struct {
	st     *stack
	svc    *subscribe.Service
	client *subscribe.Client
	subs   []*subscription
	wg     sync.WaitGroup

	deliveries atomic.Int64
}

// publish is the OnDelta tap: a span around Service.Publish, which runs
// on the controller loop and so delays the next apply.
func (f *fanout) publish(txn uint64, delta engine.Delta) {
	f.st.tr.mark(markPublishIn)
	f.svc.Publish(txn, delta)
	f.st.tr.mark(markPublishOut)
}

// open serves the service on loopback and opens n subscriptions on one
// connection, half unfiltered and half filtered on vlan. From here on
// the subscriptions, not the data plane, are the sink.
func (f *fanout) open(n int, vlan uint16) error {
	st := f.st
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go f.svc.Serve(ln)
	st.closers = append(st.closers, func() { ln.Close(); f.svc.Close() })
	f.svc.SetCatalog(st.ctrl.OutputRelations())
	conn, err := dialCounted(ln.Addr().String(), &st.subWire)
	if err != nil {
		return err
	}
	f.client = subscribe.NewClient(conn)
	st.closers = append(st.closers, func() { f.client.Close(); f.wg.Wait() })
	for i := 0; i < n; i++ {
		s := &subscription{filtered: i%2 == 1}
		var filter map[int]any
		if s.filtered {
			s.rel = (i / 2) % 3 // the relations with a filterable column
			filter = map[int]any{subRelations[s.rel].filterCol: filterValue(s.rel, vlan)}
		} else {
			s.rel = (i / 2) % len(subRelations)
		}
		s.sub, err = f.client.Subscribe(subRelations[s.rel].name, filter)
		if err != nil {
			return fmt.Errorf("subscribe %d: %w", i, err)
		}
		var fp uint64
		for _, c := range s.sub.Rows {
			fp ^= rowHash(s.rel, c.Row)
		}
		s.fp.Store(fp)
		f.subs = append(f.subs, s)
		f.wg.Add(1)
		go f.consume(s)
	}
	st.dp.sink.Store(false)
	return nil
}

// consume drains one subscription: fold every row into the fingerprint
// and count the row towards the op it belongs to.
func (f *fanout) consume(s *subscription) {
	defer f.wg.Done()
	portCol := subRelations[s.rel].portCol
	for u := range s.sub.Updates {
		at := now()
		f.deliveries.Add(1)
		fp := s.fp.Load() // this goroutine is the only writer
		for _, c := range u.Changes {
			fp ^= rowHash(s.rel, c.Row)
		}
		s.fp.Store(fp)
		for _, c := range u.Changes {
			port, _ := c.Row[portCol].(float64)
			f.st.trk.hit(portKey(uint16(port), c.W > 0), at, true)
		}
	}
}

// evictions counts subscriptions the service dropped as slow consumers.
func (f *fanout) evictions() int {
	n := 0
	for _, s := range f.subs {
		if ev, _ := s.sub.Evicted(); ev {
			n++
		}
	}
	return n
}

func vgroup(vlan uint16) uint16 { return vlan + 4096 }

// filterValue is what a filtered subscription on the relation equates
// its filter column with: the churned VLAN, or its flood group.
func filterValue(rel int, vlan uint16) float64 {
	if subRelations[rel].name == "MulticastGroup" {
		return float64(vgroup(vlan))
	}
	return float64(vlan)
}

// rowHash mixes a rendered row (JSON numbers) into 64 bits; XOR-folded
// over a subscription's snapshot and deltas it fingerprints the set of
// rows the subscriber holds.
func rowHash(rel int, row []any) uint64 {
	h := uint64(rel+1) * 0x9E3779B97F4A7C15
	for _, v := range row {
		f, _ := v.(float64)
		h ^= uint64(f) + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// switchState is a copy of every table and multicast group of a switch,
// from which a probe rebuilds a second switch in the same state.
type switchState struct {
	entries map[string][]p4.Entry
	groups  map[uint16][]uint16
}

func snapshotSwitch(rt *p4.Runtime) (*switchState, error) {
	s := &switchState{entries: make(map[string][]p4.Entry), groups: make(map[uint16][]uint16)}
	for _, t := range rt.Program().Tables {
		es, err := rt.Entries(t.Name)
		if err != nil {
			return nil, err
		}
		s.entries[t.Name] = es
	}
	for v := 0; v < 4096; v++ {
		if ports := rt.MulticastGroup(vgroup(uint16(v))); len(ports) > 0 {
			s.groups[vgroup(uint16(v))] = ports
		}
	}
	return s, nil
}

// restore builds a fresh switch holding the snapshot.
func (s *switchState) restore() (*switchsim.Switch, error) {
	sw, err := switchsim.New("probe", switchsim.Config{Program: snvs.Pipeline()})
	if err != nil {
		return nil, err
	}
	for table, es := range s.entries {
		for _, e := range es {
			if err := sw.Runtime().InsertEntry(table, e); err != nil {
				return nil, err
			}
		}
	}
	for g, ports := range s.groups {
		sw.Runtime().SetMulticastGroup(g, ports)
	}
	return sw, nil
}
