// Package switchsim is the behavioral software switch: it executes a p4
// pipeline on injected packets (the BMv2 stand-in), exposes the p4rt
// control API, sends digests to the controller, and keeps per-port
// counters. A Fabric wires multiple switches and hosts into a topology.
package switchsim

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

// Config configures a Switch.
type Config struct {
	// Program is the pipeline to execute (required).
	Program *p4.Program
}

// PortStats counts packets per port.
type PortStats struct {
	RxPackets uint64
	TxPackets uint64
}

// Switch is one simulated network device.
type Switch struct {
	name string
	rt   *p4.Runtime
	info *p4.P4Info
	srv  *p4rt.Server

	outMu  sync.RWMutex
	output func(port uint16, data []byte)

	statsMu sync.Mutex
	stats   map[uint16]*PortStats
	dropped uint64

	// digestMu orders digest lists: each takes the next ListID and is
	// queued on every connection before the next one is. Lists are
	// therefore sent, and acknowledged, in ListID order, and ackedThrough
	// is the highest list acknowledged.
	digestMu     sync.Mutex
	nextListID   uint64
	ackedThrough uint64

	// Data-plane instruments (nil-safe; zero overhead when unset).
	mRx      *obs.Counter
	mTx      *obs.Counter
	mDropped *obs.Counter
	mDigests *obs.Counter
	mWrites  *obs.Counter
	mUpdates *obs.Counter
	rec      *obs.Recorder
	tracer   *obs.Tracer

	// lastTxn is the newest management-plane transaction applied through
	// WriteTxn; digests emitted afterwards are attributed to it (the
	// configuration generation the pipeline ran under).
	lastTxn atomic.Uint64

	// writeMu serializes writes. batch is the running write's updates in
	// the runtime's form, scratch kept across writes.
	writeMu sync.Mutex
	batch   []p4.Update

	// writeFault, when set, runs at the start of every Write (fault
	// injection for tests: delays, forced errors).
	writeFault atomic.Value // func([]p4rt.Update) error
}

// SetWriteFault installs a hook invoked at the start of every Write with
// the incoming updates. A non-nil return aborts the write with that
// error; the hook may also just sleep to simulate a slow device. Pass
// nil to clear. Safe to call concurrently with writes.
func (sw *Switch) SetWriteFault(f func([]p4rt.Update) error) {
	sw.writeFault.Store(&f)
}

// SetObs registers the switch's packet and control-plane counters in o's
// registry, labelled with the switch name, and its p4rt server's queue
// instruments, and attaches the flight recorder. A nil observer is a
// no-op.
func (sw *Switch) SetObs(o *obs.Observer) {
	sw.srv.SetObs(o, "p4rt")
	reg := o.Reg()
	sw.rec = o.Rec()
	sw.tracer = o.Tr()
	lbl := obs.L("switch", sw.name)
	sw.mRx = reg.Counter("switchsim_rx_packets_total", "Frames injected.", lbl)
	sw.mTx = reg.Counter("switchsim_tx_packets_total", "Frames emitted.", lbl)
	sw.mDropped = reg.Counter("switchsim_dropped_packets_total", "Frames dropped by the pipeline.", lbl)
	sw.mDigests = reg.Counter("switchsim_digest_lists_total", "Digest lists sent to the controller.", lbl)
	sw.mWrites = reg.Counter("switchsim_writes_total", "Write batches applied.", lbl)
	sw.mUpdates = reg.Counter("switchsim_write_updates_total", "Individual updates applied.", lbl)
}

// New builds a switch running the program.
func New(name string, cfg Config) (*Switch, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("switchsim: no program")
	}
	rt, err := p4.NewRuntime(cfg.Program)
	if err != nil {
		return nil, err
	}
	info, err := p4.BuildP4Info(cfg.Program)
	if err != nil {
		return nil, err
	}
	sw := &Switch{
		name:  name,
		rt:    rt,
		info:  info,
		stats: make(map[uint16]*PortStats),
	}
	sw.srv = p4rt.NewServer(sw)
	return sw, nil
}

// Name returns the switch name.
func (sw *Switch) Name() string { return sw.name }

// Runtime exposes the underlying pipeline runtime (tests, benchmarks).
func (sw *Switch) Runtime() *p4.Runtime { return sw.rt }

// SetKeepalive makes the p4rt server probe every subsequently accepted
// controller connection with echo heartbeats, so half-open controllers
// are reaped (see jsonrpc.Conn.StartKeepalive).
func (sw *Switch) SetKeepalive(interval time.Duration) {
	sw.srv.SetKeepalive(interval)
}

// Serve accepts p4rt controller connections on ln.
func (sw *Switch) Serve(ln net.Listener) error { return sw.srv.Serve(ln) }

// ListenAndServe listens on addr and serves p4rt.
func (sw *Switch) ListenAndServe(addr string) error { return sw.srv.ListenAndServe(addr) }

// Close stops the p4rt server.
func (sw *Switch) Close() { sw.srv.Close() }

// SetOutputHandler installs the function receiving every emitted frame.
// The frame is valid only for the duration of the call: a handler that
// keeps it must copy it. The handler may inject into any switch,
// including this one.
func (sw *Switch) SetOutputHandler(f func(port uint16, data []byte)) {
	sw.outMu.Lock()
	defer sw.outMu.Unlock()
	sw.output = f
}

// Inject delivers a frame arriving on the given port and runs the
// pipeline; digests are queued, then outputs are passed to the output
// handler. It always returns nil.
func (sw *Switch) Inject(port uint16, data []byte) error {
	sw.statsMu.Lock()
	sw.portStats(port).RxPackets++
	sw.statsMu.Unlock()
	sw.mRx.Inc()

	if dropped, frames := sw.rt.Run(port, data, (*emitter)(sw)); dropped && frames == 0 {
		sw.statsMu.Lock()
		sw.dropped++
		sw.statsMu.Unlock()
		sw.mDropped.Inc()
	}
	return nil
}

// emitter is the p4.Emitter Inject hands the pipeline's results to.
type emitter Switch

func (e *emitter) Digest(name string, fields []uint64) {
	(*Switch)(e).sendDigest(name, fields)
}

func (e *emitter) Frame(port uint16, data []byte) {
	sw := (*Switch)(e)
	sw.statsMu.Lock()
	sw.portStats(port).TxPackets++
	sw.statsMu.Unlock()
	sw.mTx.Inc()
	sw.outMu.RLock()
	out := sw.output
	sw.outMu.RUnlock()
	if out != nil {
		out(port, data)
	}
}

func (sw *Switch) portStats(port uint16) *PortStats {
	ps := sw.stats[port]
	if ps == nil {
		ps = &PortStats{}
		sw.stats[port] = ps
	}
	return ps
}

// Stats returns a copy of a port's counters.
func (sw *Switch) Stats(port uint16) PortStats {
	sw.statsMu.Lock()
	defer sw.statsMu.Unlock()
	return *sw.portStats(port)
}

// Dropped returns the number of dropped packets.
func (sw *Switch) Dropped() uint64 {
	sw.statsMu.Lock()
	defer sw.statsMu.Unlock()
	return sw.dropped
}

// --- digests ---

// sendDigest sends one digest message to the controller at once, as a
// one-message list. fields need stay valid only during the call: the
// list is encoded onto each connection before NotifyDigest returns.
func (sw *Switch) sendDigest(name string, fields []uint64) {
	sw.digestMu.Lock()
	defer sw.digestMu.Unlock()
	sw.nextListID++
	sw.mDigests.Inc()
	txn := sw.lastTxn.Load()
	sw.rec.Append(obs.Ev("switchsim", "digest.send").WithTxn(txn).WithDevice(sw.name).
		F("list_id", int64(sw.nextListID)).
		F("messages", 1))
	// Queued under digestMu, so lists leave in ListID order. The send
	// never blocks: a connection either queues the list or fails.
	sw.srv.NotifyDigest(p4rt.DigestList{Digest: name, ListID: sw.nextListID, Messages: [][]uint64{fields}, Txn: txn})
}

// --- p4rt.Device implementation ---

// P4Info describes the running pipeline.
func (sw *Switch) P4Info() *p4.P4Info { return sw.info }

// Write applies updates atomically: the runtime applies the whole batch
// under one hold of its write lock, so a packet sees the tables either
// before the write or after it, and a write that fails changes nothing.
func (sw *Switch) Write(updates []p4rt.Update) error { return sw.WriteTxn(0, updates) }

// WriteTxn is Write attributed to the management-plane transaction that
// produced the updates (p4rt.TxnDevice). When a tracer is attached, a
// successful apply closes the transaction's timeline with a
// switch-applied stage, the trace's data-plane terminus; an injected
// fault is a write.fault event.
func (sw *Switch) WriteTxn(txn uint64, updates []p4rt.Update) error {
	start := time.Now()
	err := sw.applyWrite(txn, updates)
	if err == nil && txn != 0 {
		sw.lastTxn.Store(txn)
		if sw.tracer != nil {
			sw.tracer.Record(txn, "switchsim", obs.Stage{Name: "switch-applied", Start: start, End: time.Now()}.
				F("updates", int64(len(updates))))
		}
	}
	return err
}

func (sw *Switch) applyWrite(txn uint64, updates []p4rt.Update) error {
	if fp, _ := sw.writeFault.Load().(*func([]p4rt.Update) error); fp != nil && *fp != nil {
		if err := (*fp)(updates); err != nil {
			sw.rec.Append(obs.Ev("switchsim", "write.fault").WithTxn(txn).WithDevice(sw.name).
				F("updates", int64(len(updates))))
			return fmt.Errorf("switchsim %s: injected fault: %w", sw.name, err)
		}
	}
	sw.mWrites.Inc()
	sw.mUpdates.Add(uint64(len(updates)))
	sw.writeMu.Lock()
	defer sw.writeMu.Unlock()
	batch := sw.batch[:0]
	// Keep the scratch, but no entry or port list alive past the write.
	defer func() { clear(batch); sw.batch = batch[:0] }()
	for i := range updates {
		u := &updates[i]
		switch {
		case u.Entry != nil:
			var kind p4.UpdateKind
			switch u.Type {
			case p4rt.UpdateInsert:
				kind = p4.Insert
			case p4rt.UpdateModify:
				kind = p4.Modify
			case p4rt.UpdateDelete:
				kind = p4.Delete
			default:
				return fmt.Errorf("switchsim %s: unknown update type %q", sw.name, u.Type)
			}
			e := u.Entry
			batch = append(batch, p4.Update{Kind: kind, Table: e.Table, Entry: p4.Entry{
				Matches: e.Matches, Priority: e.Priority, Action: e.Action, Params: e.Params,
			}})
		case u.Multicast != nil:
			batch = append(batch, p4.Update{Kind: p4.SetGroup, Group: u.Multicast.Group, Ports: u.Multicast.Ports})
		default:
			return fmt.Errorf("switchsim %s: empty update", sw.name)
		}
	}
	if err := sw.rt.Apply(batch); err != nil {
		return fmt.Errorf("switchsim %s: %w", sw.name, err)
	}
	return nil
}

// ReadTable snapshots a table.
func (sw *Switch) ReadTable(table string) ([]p4rt.TableEntry, error) {
	entries, err := sw.rt.Entries(table)
	if err != nil {
		return nil, err
	}
	out := make([]p4rt.TableEntry, len(entries))
	for i, e := range entries {
		out[i] = p4rt.TableEntry{
			Table: table, Matches: e.Matches, Priority: e.Priority,
			Action: e.Action, Params: e.Params,
		}
	}
	return out, nil
}

// PacketOut emits a frame directly on a port, bypassing the pipeline.
func (sw *Switch) PacketOut(port uint16, data []byte) error {
	sw.statsMu.Lock()
	sw.portStats(port).TxPackets++
	sw.statsMu.Unlock()
	sw.mTx.Inc()
	sw.outMu.RLock()
	out := sw.output
	sw.outMu.RUnlock()
	if out != nil {
		out(port, data)
	}
	return nil
}

// AckDigest records a digest acknowledgement. Lists are sent in order
// and a controller acknowledges each after handling it, so an ack
// covers every list before it.
func (sw *Switch) AckDigest(listID uint64) {
	sw.digestMu.Lock()
	sw.ackedThrough = max(sw.ackedThrough, listID)
	sw.digestMu.Unlock()
}

// DigestAcked reports whether a list has been acknowledged, itself or
// by the ack of a later one (tests).
func (sw *Switch) DigestAcked(listID uint64) bool {
	sw.digestMu.Lock()
	defer sw.digestMu.Unlock()
	return listID <= sw.ackedThrough
}

// Counters exposes a table's hit/miss counters (p4rt.CounterReader).
func (sw *Switch) Counters(table string) (p4.TableCounters, bool) {
	return sw.rt.Counters(table)
}
