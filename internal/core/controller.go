// Package core implements the Nerpa controller: the state-synchronization
// loop at the center of the paper's architecture (Fig. 4).
//
// The controller compiles the generated relation declarations together
// with the hand-written control-plane rules (type-checking all three
// planes against each other), subscribes to management-plane changes via
// an OVSDB monitor, converts each committed transaction into an
// incremental engine transaction, and pushes the resulting output-relation
// deltas to the data plane as P4Runtime writes. Data-plane digests flow
// back into input relations, closing the feedback loop (e.g. MAC
// learning).
//
// Devices are organized into classes, each running its own P4 program
// (the paper's §4.1 generalization: spine and leaf switches, say). A
// class's relations are name-prefixed with the class name, and a class
// may be per-device: its output relations then carry a leading device
// column so rules compute different entries for different switches.
//
// All events are serialized through one loop goroutine, so the engine sees
// a single totally-ordered stream of transactions.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/dl"
	"repro/internal/dl/ast"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

// DataPlane is the controller's view of one managed device (implemented
// by *p4rt.Client and by in-process fakes in tests/benchmarks).
type DataPlane interface {
	GetP4Info() (*p4.P4Info, error)
	Write(updates ...p4rt.Update) error
	OnDigest(func(p4rt.DigestList))
}

// TxnWriter is optionally implemented by data planes that can attach the
// originating management-plane transaction to a write (*p4rt.Client and
// *p4rt.ResilientClient do). Observed controllers use it to extend each
// transaction's trace across the process boundary into the switch, which
// stamps its apply events and records the switch-applied stage. Detected
// by interface assertion.
type TxnWriter interface {
	WriteTxn(txn uint64, updates ...p4rt.Update) error
}

// ManagementPlane is the controller's view of the configuration database
// (implemented by *ovsdb.Client and *ovsdb.ResilientClient). Each monitor
// update carries the ID of the transaction that produced it (0 when
// unknown), so traces hold a complete commit→delta→push timeline.
type ManagementPlane interface {
	GetSchema(db string) (*ovsdb.DatabaseSchema, error)
	MonitorTxn(db string, id any, requests map[string]*ovsdb.MonitorRequest, cb func(uint64, ovsdb.TableUpdates)) (ovsdb.TableUpdates, error)
}

// Device is one managed switch: an id (usable in per-device relations)
// plus its control connection.
type Device struct {
	ID string
	DP DataPlane
}

// DeviceClass groups devices running the same P4 program.
type DeviceClass struct {
	// Name prefixes the class's generated relations (empty for the
	// single-class case: relations keep their plain names).
	Name string
	// PerDevice adds a leading device column to the class's relations, so
	// rules target individual switches by id.
	PerDevice bool
	Devices   []Device
}

// Config configures a Controller.
type Config struct {
	// Rules is the hand-written control-plane program (rules only; the
	// relation declarations are generated).
	Rules string
	// Database is the OVSDB database name.
	Database string
	// CoalesceMaxTxns bounds how many adjacent OVSDB-delivered commits the
	// event loop merges into a single engine transaction before applying.
	// Only commits already queued behind the first are merged, so a lone
	// commit is never delayed. 0 or 1 disables coalescing (every commit
	// applies individually).
	// Merging amortizes the fixed per-apply cost (evaluation setup, delta
	// collection, data-plane push barrier) across a burst of small
	// commits; per-commit trace and provenance attribution is preserved
	// via per-segment accounting.
	CoalesceMaxTxns int
	// CoalesceMaxUpdates flushes a merged batch once it carries at least
	// this many input updates, regardless of how many commits merged so
	// far. 0 selects the default (1024). Only meaningful when
	// CoalesceMaxTxns > 1.
	CoalesceMaxUpdates int
	// OnDelta, when set, receives every non-empty output delta right
	// after the data-plane push, on the event-loop goroutine, attributed
	// with the transaction that produced it (0 for the initial sync; a
	// coalesced batch reports the last merged commit's ID). The callee
	// must treat the delta as read-only and return quickly — it runs
	// inside the serialization point of the controller. This is the tap
	// the pub/sub fan-out (internal/subscribe) attaches to.
	OnDelta func(txn uint64, delta engine.Delta)
	// Obs is the controller's one instrumentation switch. When set, the
	// controller feeds its registry, tracer and flight recorder, the
	// engine collects statistics, per-rule costs (dl_rule_*,
	// /debug/rules), memory accounting (dl_mem_*, /debug/memory) and
	// provenance (/debug/explain), and writes to TxnWriter devices carry
	// the transaction ID so the switch extends the trace. nil disables
	// all of it at zero cost.
	Obs *obs.Observer
}

// pushWorkers bounds how many devices receive their P4Runtime writes
// concurrently when a delta touches several switches.
const pushWorkers = 8

// defaultCoalesceMaxUpdates is the merged-batch size bound used when
// Config.CoalesceMaxUpdates is zero.
const defaultCoalesceMaxUpdates = 1024

// mcastKey identifies one multicast group on one device ("" = whole
// class).
type mcastKey struct {
	device string
	group  uint16
}

// classState is the runtime state of one device class.
type classState struct {
	cls     DeviceClass
	gen     *codegen.Generated
	devByID map[string]DataPlane
	mcast   map[mcastKey]map[uint16]bool
}

// outputRoute resolves an output relation to its class and binding.
type outputRoute struct {
	class   *classState
	binding *codegen.OutputTableBinding
}

// Controller is a running full-stack controller instance.
type Controller struct {
	cfg      Config
	inputGen *codegen.Generated
	classes  []*classState
	outputs  map[string]*outputRoute
	p4Tables map[string]bool
	mcastRel map[string]*classState
	prov     *provState
	prog     *dl.Program
	rt       *engine.Runtime
	mp       ManagementPlane
	events   chan event
	done     chan struct{}
	stopOnce sync.Once
	evMu     sync.RWMutex
	evClosed bool

	// devClass resolves a device ID to its class for Resync (see
	// resilience.go).
	devClass map[string]*classState

	tracer *obs.Tracer
	rec    *obs.Recorder
	m      ctrlMetrics

	mu  sync.Mutex
	err error
}

// ctrlMetrics holds the controller's pre-registered instruments. With no
// registry every field is a nil instrument (and map lookups on nil maps
// return nil), so the instrumented paths need no enable checks.
type ctrlMetrics struct {
	txnTotal   map[string]*obs.Counter // by event source
	engineSecs *obs.Histogram
	pushSecs   *obs.Histogram
	inputSize  *obs.Histogram
	outputSize *obs.Histogram
	pushErrors *obs.Counter
	resyncs    *obs.Counter
	// coalesceBatches counts applies that merged more than one commit;
	// coalescedTxns counts the commits that rode in them.
	coalesceBatches *obs.Counter
	coalescedTxns   *obs.Counter
	devPush         map[string]*obs.Histogram // by device id
	devBatch        *obs.Histogram
	evalStratum     []*obs.Histogram
	deltaSize       *obs.Histogram
	derivations     *obs.Counter

	provFacts     *obs.Gauge
	provEvictions *obs.Gauge
	provEntries   *obs.Gauge
	provInputs    *obs.Gauge
}

// initObs pre-registers every controller series. Called once the runtime
// (stratum count) and device classes are known, so the per-txn paths only
// ever touch existing instruments.
func (c *Controller) initObs() {
	reg := c.cfg.Obs.Reg()
	c.tracer = c.cfg.Obs.Tr()
	c.rec = c.cfg.Obs.Rec()
	c.m.txnTotal = map[string]*obs.Counter{}
	for _, src := range []string{"ovsdb", "digest", "initial"} {
		c.m.txnTotal[src] = reg.Counter("core_txn_total",
			"Transactions applied by the controller.", obs.L("source", src))
	}
	c.m.engineSecs = reg.Histogram("core_engine_seconds",
		"Incremental evaluation latency per transaction.", nil)
	c.m.pushSecs = reg.Histogram("core_push_seconds",
		"Data-plane push latency per transaction (all devices, barrier).", nil)
	c.m.inputSize = reg.Histogram("core_input_updates",
		"Input updates per transaction.", obs.SizeBuckets)
	c.m.outputSize = reg.Histogram("core_output_changes",
		"Data-plane changes produced per transaction.", obs.SizeBuckets)
	c.m.pushErrors = reg.Counter("core_push_errors_total",
		"Transactions whose data-plane push failed.")
	c.m.resyncs = reg.Counter("core_resyncs_total",
		"Device reconciliations completed after a reconnect.")
	c.m.coalesceBatches = reg.Counter("core_coalesce_batches_total",
		"Engine applies that merged more than one monitor-delivered commit.")
	c.m.coalescedTxns = reg.Counter("core_coalesced_txns_total",
		"Monitor-delivered commits merged into coalesced applies.")
	c.m.devPush = map[string]*obs.Histogram{}
	for _, cs := range c.classes {
		for _, dev := range cs.cls.Devices {
			c.m.devPush[dev.ID] = reg.Histogram("core_device_push_seconds",
				"Per-device write-stream latency within a push.", nil, obs.L("device", dev.ID))
		}
	}
	c.m.devBatch = reg.Histogram("core_device_push_updates",
		"Updates written to one device within a push.", obs.SizeBuckets)
	for s := 0; s < c.rt.NumStrata(); s++ {
		c.m.evalStratum = append(c.m.evalStratum, reg.Histogram("dl_eval_seconds",
			"Evaluation latency per stratum per transaction.", nil,
			obs.L("stratum", fmt.Sprintf("%d", s))))
	}
	c.m.deltaSize = reg.Histogram("dl_delta_size",
		"Output delta tuples per transaction.", obs.SizeBuckets)
	c.m.derivations = reg.Counter("dl_derivations_total",
		"Tuple derivation operations performed.")
	c.m.provFacts = reg.Gauge("obs_provenance_facts",
		"Derived facts with recorded provenance in the engine store.")
	c.m.provEvictions = reg.Gauge("obs_provenance_evictions",
		"Provenance records discarded by the capacity bounds (engine store + controller origin maps).")
	c.m.provEntries = reg.Gauge("obs_provenance_entries",
		"Pushed P4 table entries with a recorded origin.")
	c.m.provInputs = reg.Gauge("obs_provenance_inputs",
		"Input-relation records with a recorded originating transaction.")

	// History series the stall watchdog consumes (see obs.Series*):
	// applied-transaction rate (summed across sources), event-queue depth,
	// and the latency averages behind "what did push latency look like".
	o := c.cfg.Obs
	srcCounters := make([]*obs.Counter, 0, len(c.m.txnTotal))
	for _, ctr := range c.m.txnTotal {
		srcCounters = append(srcCounters, ctr)
	}
	o.TrackRate(obs.SeriesApplies, func() float64 {
		var sum uint64
		for _, ctr := range srcCounters {
			sum += ctr.Value()
		}
		return float64(sum)
	})
	o.TrackValue(obs.SeriesQueueDepth, func() float64 { return float64(len(c.events)) })
	o.TrackHistogramAvg(obs.SeriesPushLatency, c.m.pushSecs)
	o.TrackHistogramAvg(obs.SeriesEngineLatency, c.m.engineSecs)

	// Workload-profiler series. The rule set is static per program, so
	// every dl_rule_* series is registered up front from the engine's
	// RuleInfos (the short "Head#ordinal" rule ID as the label value) and
	// read at scrape time from the profiler's aggregation — the per-txn
	// path only feeds the profiler once, under its lock. Memory totals
	// are scrape-time callbacks over the latest published snapshot;
	// per-relation detail stays on /debug/memory where cardinality is
	// bounded by the response, not the registry.
	if infos := c.rt.RuleInfos(); len(infos) > 0 {
		prof := o.Prof()
		for _, in := range infos {
			id := in.ID
			prof.EnsureRule(in.ID, in.Label, in.Stratum, in.Recursive)
			reg.CounterFunc("dl_rule_eval_ns_total",
				"Evaluation time attributed to each rule, nanoseconds.",
				func() uint64 { ev, _, _ := prof.RuleTotals(id); return ev },
				obs.L("rule", id))
			reg.CounterFunc("dl_rule_derivations_total",
				"Tuple derivations attributed to each rule.",
				func() uint64 { _, d, _ := prof.RuleTotals(id); return d },
				obs.L("rule", id))
			reg.CounterFunc("dl_rule_delta_tuples_total",
				"Net tuple presence transitions attributed to each rule.",
				func() uint64 { _, _, dt := prof.RuleTotals(id); return dt },
				obs.L("rule", id))
			reg.GaugeFunc("dl_rule_cost_ewma_seconds",
				"EWMA of each rule's per-transaction evaluation time (the hot-rule ranking signal).",
				func() float64 { return prof.RuleEwmaSeconds(id) },
				obs.L("rule", id))
		}
		reg.GaugeFunc("dl_mem_bytes",
			"Estimated engine memory footprint: arrangements, indexes, and provenance.",
			func() float64 { m, _ := prof.Memory(); return float64(m.Bytes + m.Provenance.Bytes) })
		reg.GaugeFunc("dl_mem_tuples",
			"Tuples resident across all relations.",
			func() float64 { m, _ := prof.Memory(); return float64(m.Tuples) })
		reg.GaugeFunc("dl_mem_index_entries",
			"Secondary-index entries resident across all relations.",
			func() float64 { m, _ := prof.Memory(); return float64(m.IndexEntries) })
		reg.GaugeFunc("dl_mem_provenance_bytes",
			"Estimated provenance-store share of the engine footprint.",
			func() float64 { m, _ := prof.Memory(); return float64(m.Provenance.Bytes) })
	}
}

// publishMemory snapshots the engine's memory accounting into the
// profiler after every transaction, so /debug/memory is always current
// as of the last apply (a burst's final state, not its first).
// MemoryStats runs off maintained counters in O(#relations), so the
// per-txn cost is a short walk. Event-loop goroutine only:
// Runtime.MemoryStats reads state that Apply mutates.
func (c *Controller) publishMemory() {
	ms := c.rt.MemoryStats()
	snap := obs.MemSnapshot{
		Relations:    make([]obs.RelMem, len(ms.Relations)),
		Tuples:       int64(ms.Tuples),
		IndexEntries: int64(ms.IndexEntries),
		Bytes:        ms.Bytes,
		Provenance:   obs.ProvMem{Facts: int64(ms.Provenance.Facts), Bytes: ms.Provenance.Bytes},
	}
	for i, rm := range ms.Relations {
		snap.Relations[i] = obs.RelMem{
			Name: rm.Name, Hidden: rm.Hidden, Stratum: rm.Stratum,
			Recursive: rm.Recursive, Tuples: int64(rm.Tuples), Indexes: int64(rm.Indexes),
			IndexEntries: int64(rm.IndexEntries), Bytes: rm.Bytes,
		}
	}
	c.cfg.Obs.Prof().SetMemory(snap)
}

// txnSeg attributes one contiguous slice of a merged event's updates to
// its originating commit: after coalescing, updates[start:start+n] of
// segment k came from txnID, where start is the sum of the preceding
// segments' n. A nil segs slice means the event is a single commit
// (txnID covers every update).
type txnSeg struct {
	txnID uint64
	n     int
}

type event struct {
	source  string
	txnID   uint64
	updates []engine.Update
	segs    []txnSeg
	barrier chan struct{}
	resync  *resyncReq
}

// eachSeg visits the event's per-commit segments in order: the commit's
// txn ID and its slice of the event's updates.
func (ev *event) eachSeg(f func(txnID uint64, ups []engine.Update)) {
	if ev.segs == nil {
		f(ev.txnID, ev.updates)
		return
	}
	i := 0
	for _, seg := range ev.segs {
		f(seg.txnID, ev.updates[i:i+seg.n])
		i += seg.n
	}
}

// coalesced is how many commits the event carries (1 when unmerged).
func (ev *event) coalesced() int {
	if ev.segs == nil {
		return 1
	}
	return len(ev.segs)
}

// New builds and starts a controller managing a single class of devices
// (plain relation names, no device column) — the paper's prototype shape.
func New(cfg Config, mp ManagementPlane, devices ...DataPlane) (*Controller, error) {
	cls := DeviceClass{}
	for i, dp := range devices {
		cls.Devices = append(cls.Devices, Device{ID: fmt.Sprintf("dev%d", i), DP: dp})
	}
	return NewWithClasses(cfg, mp, []DeviceClass{cls})
}

// NewWithClasses builds and starts a controller managing several device
// classes, each running its own P4 program. It fetches each class's
// pipeline description, generates declarations from all planes, compiles
// and cross-checks the combined program, loads the initial database
// snapshot, and begins processing changes.
func NewWithClasses(cfg Config, mp ManagementPlane, classes []DeviceClass) (*Controller, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("core: no device classes")
	}
	schema, err := mp.GetSchema(cfg.Database)
	if err != nil {
		return nil, fmt.Errorf("core: fetching schema: %w", err)
	}
	inputGen, err := codegen.Generate(schema, nil, codegen.Options{})
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		inputGen: inputGen,
		outputs:  make(map[string]*outputRoute),
		p4Tables: make(map[string]bool),
		mcastRel: make(map[string]*classState),
		mp:       mp,
		events:   make(chan event, 1024),
		done:     make(chan struct{}),
		devClass: make(map[string]*classState),
	}
	decls := inputGen.Decls
	seen := make(map[string]bool)
	for _, cls := range classes {
		if len(cls.Devices) == 0 {
			return nil, fmt.Errorf("core: class %q has no devices", cls.Name)
		}
		if seen[cls.Name] {
			return nil, fmt.Errorf("core: duplicate device class %q", cls.Name)
		}
		seen[cls.Name] = true
		info, err := cls.Devices[0].DP.GetP4Info()
		if err != nil {
			return nil, fmt.Errorf("core: class %q: fetching p4info: %w", cls.Name, err)
		}
		for _, dev := range cls.Devices[1:] {
			other, err := dev.DP.GetP4Info()
			if err != nil {
				return nil, fmt.Errorf("core: class %q: fetching p4info: %w", cls.Name, err)
			}
			if other.Program != info.Program {
				return nil, fmt.Errorf("core: class %q: device %s runs %q, class runs %q",
					cls.Name, dev.ID, other.Program, info.Program)
			}
		}
		gen, err := codegen.Generate(nil, info, codegen.Options{
			WithMulticast: true, Prefix: cls.Name, PerDevice: cls.PerDevice,
		})
		if err != nil {
			return nil, err
		}
		cs := &classState{
			cls:     cls,
			gen:     gen,
			devByID: make(map[string]DataPlane, len(cls.Devices)),
			mcast:   make(map[mcastKey]map[uint16]bool),
		}
		for _, dev := range cls.Devices {
			if _, dup := cs.devByID[dev.ID]; dup {
				return nil, fmt.Errorf("core: class %q: duplicate device id %q", cls.Name, dev.ID)
			}
			// Resync addresses a device by ID alone, so IDs are unique
			// across classes, not just within one.
			if other, dup := c.devClass[dev.ID]; dup {
				return nil, fmt.Errorf("core: device id %q is in both class %q and class %q",
					dev.ID, other.cls.Name, cls.Name)
			}
			cs.devByID[dev.ID] = dev.DP
			c.devClass[dev.ID] = cs
		}
		for rel, b := range gen.Outputs {
			if _, dup := c.outputs[rel]; dup {
				return nil, fmt.Errorf("core: output relation %q generated by two classes", rel)
			}
			c.outputs[rel] = &outputRoute{class: cs, binding: b}
			c.p4Tables[b.Table] = true
		}
		c.mcastRel[gen.MulticastName] = cs
		c.classes = append(c.classes, cs)
		decls += gen.Decls
	}

	prog, err := dl.Compile(decls + "\n" + cfg.Rules)
	if err != nil {
		return nil, fmt.Errorf("core: compiling control plane: %w", err)
	}
	if err := inputGen.Verify(prog); err != nil {
		return nil, err
	}
	for _, cs := range c.classes {
		if err := cs.gen.Verify(prog); err != nil {
			return nil, err
		}
	}
	c.prog = prog
	// An observed controller turns the engine's collection on: the dl_*
	// series and the profiler need its statistics, /debug/explain needs
	// its provenance store, and sharing the process flight recorder
	// interleaves apply/stratum events with the controller's own.
	c.rt, err = prog.NewRuntime(engine.Options{Collect: cfg.Obs != nil, Events: cfg.Obs.Rec()})
	if err != nil {
		return nil, err
	}
	c.initObs()
	if cfg.Obs != nil {
		c.prov = newProvState(0)
		cfg.Obs.SetExplainer(c)
	}
	go c.loop()

	// Digest subscriptions feed the event queue, tagged with the
	// originating device.
	for _, cs := range c.classes {
		for _, dev := range cs.cls.Devices {
			cs := cs
			id := dev.ID
			dev.DP.OnDigest(func(dl p4rt.DigestList) { c.handleDigest(cs, id, dl) })
		}
	}
	// Monitor every bound table with exactly the bound columns.
	initial, err := mp.MonitorTxn(cfg.Database, "nerpa", c.monitorRequests(), c.handleOVSDB)
	if err != nil {
		c.Stop()
		return nil, fmt.Errorf("core: monitor: %w", err)
	}
	ups, err := c.ovsdbUpdates(initial)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.events <- event{source: "initial", updates: ups}
	// When the management plane exposes connection liveness (as
	// *ovsdb.Client does), surface a dropped session through Err() rather
	// than silently receiving no further updates.
	if lp, ok := mp.(interface{ Done() <-chan struct{} }); ok {
		go func() {
			select {
			case <-lp.Done():
				c.fail(errors.New("core: management-plane connection closed"))
			case <-c.done:
			}
		}()
	}
	return c, nil
}

// Program returns the compiled control-plane program.
func (c *Controller) Program() *dl.Program { return c.prog }

// Generated returns the management-plane bindings (the schema side).
// Class bindings are internal; tests reach them through the program.
func (c *Controller) Generated() *codegen.Generated { return c.inputGen }

// Contents exposes a relation snapshot (diagnostics and tests).
func (c *Controller) Contents(rel string) ([]value.Record, error) { return c.rt.Contents(rel) }

// OutputRelations returns the names of the program's derived (output-
// role) relations, sorted — the set a subscription service may offer,
// and exactly the keys that can appear in an OnDelta delta.
func (c *Controller) OutputRelations() []string {
	var names []string
	for _, name := range c.rt.Relations() {
		if role, ok := c.rt.RelationRole(name); ok && role == ast.RoleOutput {
			names = append(names, name)
		}
	}
	return names
}

// Err returns the error that stopped the controller, if any.
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Done is closed when the controller stops.
func (c *Controller) Done() <-chan struct{} { return c.done }

// Stop terminates the event loop.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		c.evMu.Lock()
		c.evClosed = true
		c.evMu.Unlock()
		close(c.events)
	})
	<-c.done
}

// Barrier blocks until every event enqueued before it has been fully
// processed (including data-plane pushes).
func (c *Controller) Barrier() error {
	ch := make(chan struct{})
	if !c.enqueue(event{barrier: ch}) {
		return c.Err()
	}
	select {
	case <-ch:
		return nil
	case <-c.done:
		return c.Err()
	}
}

func (c *Controller) fail(err error) {
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	c.mu.Unlock()
	if first {
		c.rec.Append(obs.Ev("core", "ctrl.error"))
	}
	c.cfg.Obs.SetReady(false)
}

func (c *Controller) loop() {
	defer close(c.done)
	for ev := range c.events {
		// A dispatched event may have pulled the next event off the queue
		// while coalescing; keep dispatching until none is carried over.
		for {
			var deferred *event
			if ev.source == "ovsdb" && c.cfg.CoalesceMaxTxns > 1 {
				deferred = c.coalesce(&ev)
			}
			c.dispatch(&ev)
			if deferred == nil {
				break
			}
			ev = *deferred
		}
	}
}

// coalesce merges the OVSDB commits already queued behind ev into it,
// bounded by CoalesceMaxTxns commits and CoalesceMaxUpdates input
// updates. The merged event's txnID is the last merged non-zero commit
// ID; per-commit attribution is preserved in ev.segs. Returns the first
// non-mergeable event popped off the queue (a barrier, resync, or digest
// that must run after the merged batch), or nil.
func (c *Controller) coalesce(ev *event) *event {
	maxUpdates := c.cfg.CoalesceMaxUpdates
	if maxUpdates <= 0 {
		maxUpdates = defaultCoalesceMaxUpdates
	}
	for ev.coalesced() < c.cfg.CoalesceMaxTxns && len(ev.updates) < maxUpdates {
		var next event
		var ok bool
		select {
		case next, ok = <-c.events:
		default:
			return nil
		}
		if !ok {
			// Channel closed mid-drain; dispatch what we merged, the
			// outer range loop terminates right after.
			return nil
		}
		if next.source != "ovsdb" {
			return &next
		}
		if ev.segs == nil {
			ev.segs = append(ev.segs, txnSeg{txnID: ev.txnID, n: len(ev.updates)})
		}
		ev.segs = append(ev.segs, txnSeg{txnID: next.txnID, n: len(next.updates)})
		ev.updates = append(ev.updates, next.updates...)
		if next.txnID != 0 {
			ev.txnID = next.txnID
		}
	}
	return nil
}

// dispatch processes one event: control events (barrier, resync)
// immediately, transaction events through the apply→observe→push
// sequence.
func (c *Controller) dispatch(ev *event) {
	if ev.barrier != nil {
		close(ev.barrier)
		return
	}
	if ev.resync != nil {
		// Reconciliation runs even though it interleaves with normal
		// transactions: the event loop serializes it against pushes, so
		// it sees a consistent desired state.
		if err := c.Err(); err != nil {
			ev.resync.done <- fmt.Errorf("core: resync %s: controller failed: %w",
				ev.resync.device, err)
		} else {
			ev.resync.done <- c.doResync(ev.resync.device, ev.resync.dp)
		}
		return
	}
	if c.Err() != nil {
		return // drain after failure
	}
	c.rt.SetEventTxn(ev.txnID)
	start := time.Now()
	delta, err := c.rt.Apply(ev.updates)
	engineTime := time.Since(start)
	if err != nil {
		c.fail(fmt.Errorf("core: engine: %w", err))
		return
	}
	ruleSamples := c.observeEngine(ev, start, engineTime)
	c.noteInputs(ev)
	if k := ev.coalesced(); k > 1 {
		c.m.coalesceBatches.Inc()
		c.m.coalescedTxns.Add(uint64(k))
		c.rec.Append(obs.Ev("core", "txn.coalesce").WithTxn(ev.txnID).
			F("txns", int64(k)).F("updates", int64(len(ev.updates))))
	}
	c.rec.Append(obs.Ev("core", "delta.done").WithTxn(ev.txnID).
		F("input_updates", int64(len(ev.updates))).
		F("changed_rels", int64(len(delta))).
		F("eval_us", engineTime.Microseconds()))
	pushStart := time.Now()
	c.rec.Append(obs.Ev("core", "push.start").WithTxn(ev.txnID).At(pushStart))
	n, err := c.push(ev, delta)
	pushTime := time.Since(pushStart)
	if err != nil {
		c.m.pushErrors.Inc()
		c.rec.Append(obs.Ev("core", "push.error").WithTxn(ev.txnID).
			F("updates", int64(n)))
		// A device that is merely unreachable does not poison the
		// controller: its desired state kept advancing, and the resync
		// that runs when its connection heals closes the gap. Anything
		// else (e.g. the switch rejected a write) is a real failure.
		if !errors.Is(err, p4rt.ErrUnavailable) {
			c.fail(fmt.Errorf("core: push: %w", err))
			return
		}
	}
	if c.cfg.OnDelta != nil && len(delta) > 0 {
		// Subscribers observe the delta only once the data plane accepted
		// it (or the device was merely unreachable and will resync): the
		// published stream never runs ahead of a delta the push rejected.
		c.cfg.OnDelta(ev.txnID, delta)
	}
	if c.tracer != nil {
		// Each merged commit gets its own push stage (with its own attrs
		// map: pooled maps must not be shared across traces).
		ev.eachSeg(func(txn uint64, _ []engine.Update) {
			c.tracer.Record(txn, "core", obs.Stage{
				Name:  "push",
				Start: pushStart,
				End:   pushStart.Add(pushTime),
				Attrs: pushAttrs(n),
			})
		})
	}
	// Budget checks run only after the push completed, so an incident
	// pinned for a slow delta still captures the full commit→push
	// timeline (and slow pushes pin the provenance of what they wrote).
	if o := c.cfg.Obs; o != nil {
		if o.BudgetExceeded("delta", engineTime) {
			// With profiling on, the incident carries the pinned
			// transaction's own per-rule breakdown, so it answers *which*
			// rule made the delta slow, not just that it was slow.
			var detail any
			if len(ruleSamples) > 0 {
				detail = map[string][]obs.RuleSample{"rules": ruleSamples}
			}
			o.PinIncident("delta", ev.txnID, ev.source, engineTime, detail)
		}
		if o.BudgetExceeded("push", pushTime) {
			o.PinIncident("push", ev.txnID, ev.source, pushTime,
				c.prov.originsForTxn(ev.txnID, incidentOriginLimit))
		}
	}
	c.record(ev, n, engineTime, pushTime)
	if ev.source == "initial" {
		// Monitor established and initial sync pushed: the controller
		// is serving the database's current state.
		c.cfg.Obs.SetReady(true)
	}
}

// pushAttrs builds the pooled attr map for the push trace stage.
func pushAttrs(n int) map[string]int64 {
	a := obs.NewAttrs()
	a["updates"] = int64(n)
	return a
}

// observeEngine translates the engine's per-transaction statistics into
// dl_* metrics, the workload profiler and the "delta" trace stage, and
// returns the transaction's per-rule breakdown for incident enrichment.
// Unobserved, the engine collects nothing and neither does this.
func (c *Controller) observeEngine(ev *event, start time.Time, engineTime time.Duration) []obs.RuleSample {
	st := c.rt.LastApplyStats()
	if st == nil {
		return nil
	}
	for _, ss := range st.Strata {
		if ss.Stratum < len(c.m.evalStratum) {
			c.m.evalStratum[ss.Stratum].ObserveDuration(ss.Duration)
		}
	}
	c.m.deltaSize.Observe(float64(st.DeltaSize))
	c.m.derivations.Add(uint64(st.Derivations))
	var ruleSamples []obs.RuleSample
	if len(st.Rules) > 0 {
		ruleSamples = make([]obs.RuleSample, len(st.Rules))
		for i, r := range st.Rules {
			ruleSamples[i] = obs.RuleSample{
				ID: r.ID, Label: r.Label, Stratum: r.Stratum, Recursive: r.Recursive,
				Seedings: r.Seedings, Derivations: r.Derivations,
				DeltaTuples: r.DeltaTuples, EvalNs: int64(r.Duration),
			}
		}
	}
	// Observe even an empty transaction: idle rules' EWMA costs decay
	// so stale hot spots sink out of the top-K.
	c.cfg.Obs.Prof().ObserveTxn(ruleSamples)
	c.publishMemory()
	if c.tracer != nil {
		// Each merged commit gets its own delta stage carrying its own
		// update count, so /debug/traces stays per-commit even when the
		// engine applied several commits at once. Attrs maps are pooled
		// and per-trace, hence built per segment.
		coalesced := int64(ev.coalesced())
		ev.eachSeg(func(txn uint64, ups []engine.Update) {
			attrs := obs.NewAttrs()
			attrs["input_updates"] = int64(len(ups))
			attrs["delta_size"] = int64(st.DeltaSize)
			attrs["derivations"] = st.Derivations
			if coalesced > 1 {
				attrs["coalesced_txns"] = coalesced
			}
			c.tracer.Record(txn, "core", obs.Stage{
				Name:  "delta",
				Start: start,
				End:   start.Add(engineTime),
				Attrs: attrs,
			})
		})
	}
	return ruleSamples
}

// record is the single accounting site for per-transaction statistics:
// the core_* series are the controller's only per-transaction record.
func (c *Controller) record(ev *event, outputs int, engineTime, pushTime time.Duration) {
	c.m.txnTotal[ev.source].Inc()
	c.m.engineSecs.ObserveDuration(engineTime)
	c.m.pushSecs.ObserveDuration(pushTime)
	c.m.inputSize.Observe(float64(len(ev.updates)))
	c.m.outputSize.Observe(float64(outputs))
	c.observeProvenance()
}

// target identifies one write destination: a device of a class, or the
// whole class (device "").
type target struct {
	class  *classState
	device string
}

// push converts output deltas to data-plane writes, grouped per target.
// Deletes are issued before inserts so match-key replacements land
// correctly. Relations are visited in sorted name order and Z-set entries
// in sorted record order, so the write stream is deterministic regardless
// of map iteration or engine worker interleaving. Entry-origin records
// are staged during conversion and applied only once every device
// acknowledged its writes, so the origin maps never describe entries the
// switches rejected.
func (c *Controller) push(ev *event, delta engine.Delta) (int, error) {
	dels := make(map[target][]p4rt.Update)
	ins := make(map[target][]p4rt.Update)
	mcastDirty := make(map[target]map[uint16]bool)
	var origins []pendingOrigin
	var order []target
	seen := make(map[target]bool)
	touch := func(tg target) {
		if !seen[tg] {
			seen[tg] = true
			order = append(order, tg)
		}
	}

	rels := make([]string, 0, len(delta))
	for rel := range delta {
		rels = append(rels, rel)
	}
	slices.Sort(rels)
	for _, rel := range rels {
		z := delta[rel]
		if cs, ok := c.mcastRel[rel]; ok {
			for _, e := range z.Entries() {
				var device string
				var group, port uint16
				var err error
				if cs.cls.PerDevice {
					device, group, port, err = codegen.MulticastDeviceFromRecord(e.Rec)
				} else {
					group, port, err = codegen.MulticastFromRecord(e.Rec)
				}
				if err != nil {
					return 0, err
				}
				key := mcastKey{device: device, group: group}
				members := cs.mcast[key]
				if members == nil {
					members = make(map[uint16]bool)
					cs.mcast[key] = members
				}
				if e.Weight > 0 {
					members[port] = true
				} else {
					delete(members, port)
				}
				tg := target{class: cs, device: device}
				touch(tg)
				if mcastDirty[tg] == nil {
					mcastDirty[tg] = make(map[uint16]bool)
				}
				mcastDirty[tg][group] = true
			}
			continue
		}
		route := c.outputs[rel]
		if route == nil {
			continue // internal or unbound output relation
		}
		for _, e := range z.Entries() {
			entry, err := route.binding.EntryFromRecord(e.Rec)
			if err != nil {
				return 0, err
			}
			tg := target{class: route.class, device: route.binding.Device(e.Rec)}
			touch(tg)
			if e.Weight > 0 {
				ins[tg] = append(ins[tg], p4rt.InsertEntry(entry))
			} else {
				dels[tg] = append(dels[tg], p4rt.DeleteEntry(entry))
			}
			if c.prov != nil {
				match := renderMatches(route.binding, entry)
				ek := entryKey{device: tg.device, table: entry.Table, match: match}
				if e.Weight > 0 {
					origins = append(origins, pendingOrigin{key: ek, origin: &EntryOrigin{
						Table: entry.Table, Device: tg.device, Matches: match,
						Action: entry.Action, Relation: rel, Record: e.Rec.String(),
						TxnID: ev.txnID, Source: ev.source, rec: e.Rec,
					}})
				} else {
					origins = append(origins, pendingOrigin{key: ek})
				}
			}
		}
	}

	// Flatten targets into per-device batch lists: class-wide targets
	// expand to every device of the class, and a device touched by several
	// targets keeps its batches in target order. Devices are then mutually
	// independent and their writes can proceed concurrently.
	total := 0
	var writes []*devWrite
	byDev := make(map[target]*devWrite)
	var txn uint64
	if c.cfg.Obs != nil {
		txn = ev.txnID // observed: TxnWriter devices extend the trace
	}
	addBatch := func(cs *classState, id string, dp DataPlane, updates []p4rt.Update) {
		key := target{class: cs, device: id}
		dw := byDev[key]
		if dw == nil {
			dw = &devWrite{id: id, dp: dp, txn: txn}
			byDev[key] = dw
			writes = append(writes, dw)
		}
		dw.batches = append(dw.batches, updates)
	}
	for _, tg := range order {
		var updates []p4rt.Update
		updates = append(updates, dels[tg]...)
		updates = append(updates, ins[tg]...)
		groups := make([]uint16, 0, len(mcastDirty[tg]))
		for g := range mcastDirty[tg] {
			groups = append(groups, g)
		}
		slices.Sort(groups)
		for _, g := range groups {
			members := tg.class.mcast[mcastKey{device: tg.device, group: g}]
			updates = append(updates, p4rt.SetMulticast(g, sortedPorts(members)))
		}
		if len(updates) == 0 {
			continue
		}
		total += len(updates)
		if tg.device == "" {
			for _, dev := range tg.class.cls.Devices {
				addBatch(tg.class, dev.ID, dev.DP, updates)
			}
			continue
		}
		dp := tg.class.devByID[tg.device]
		if dp == nil {
			return 0, fmt.Errorf("core: rules target unknown device %q of class %q",
				tg.device, tg.class.cls.Name)
		}
		addBatch(tg.class, tg.device, dp, updates)
	}
	if err := c.writeDevices(writes, pushWorkers); err != nil {
		return total, err
	}
	c.rec.Append(obs.Ev("core", "push.barrier").WithTxn(ev.txnID).
		F("devices", int64(len(writes))).
		F("updates", int64(total)))
	// Drops first: a same-match replacement (delete old + insert new in
	// one delta) must end with the new origin regardless of record order.
	for _, po := range origins {
		if po.origin == nil {
			c.prov.dropEntry(po.key)
		}
	}
	for _, po := range origins {
		if po.origin != nil {
			c.prov.noteEntry(po.key, po.origin)
		}
	}
	return total, nil
}

// devWrite is the ordered write stream destined for one device within one
// push. A non-zero txn (observed controllers only) selects the
// txn-carrying wire form on TxnWriter devices.
type devWrite struct {
	id      string
	dp      DataPlane
	txn     uint64
	batches [][]p4rt.Update
}

func (dw *devWrite) flush() error {
	tw, ok := dw.dp.(TxnWriter)
	useTxn := ok && dw.txn != 0
	for _, b := range dw.batches {
		var err error
		if useTxn {
			err = tw.WriteTxn(dw.txn, b...)
		} else {
			err = dw.dp.Write(b...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// flushObserved is flush plus per-device latency and batch-size metrics
// and the device.write flight-recorder event.
func (c *Controller) flushObserved(dw *devWrite) error {
	t0 := time.Now()
	err := dw.flush()
	elapsed := time.Since(t0)
	c.m.devPush[dw.id].ObserveDuration(elapsed)
	n := 0
	for _, b := range dw.batches {
		n += len(b)
	}
	c.m.devBatch.Observe(float64(n))
	failed := int64(0)
	if err != nil {
		failed = 1
	}
	c.rec.Append(obs.Ev("core", "device.write").WithTxn(dw.txn).WithDevice(dw.id).
		F("updates", int64(n)).
		F("write_us", elapsed.Microseconds()).
		F("failed", failed))
	return err
}

// writeDevices issues each device's write stream, fanning out across up to
// nw goroutines. Per-device ordering is preserved (one goroutine owns a
// device's whole stream), all writes complete before the push returns
// (barrier), and on failure the error of the first device in delta order
// is reported.
func (c *Controller) writeDevices(writes []*devWrite, nw int) error {
	if nw > len(writes) {
		nw = len(writes)
	}
	if nw <= 1 {
		errs := make([]error, len(writes))
		for i, dw := range writes {
			errs[i] = c.flushObserved(dw)
		}
		return pickPushErr(errs)
	}
	errs := make([]error, len(writes))
	var next int64
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(writes) {
					return
				}
				errs[i] = c.flushObserved(writes[i])
			}
		}()
	}
	wg.Wait()
	return pickPushErr(errs)
}

// pickPushErr reduces per-device push errors to the one the transaction
// reports: any fatal error outranks device-unavailable ones (which the
// loop tolerates), and within a rank the first device in delta order
// wins. Every device got its write attempt either way — one unreachable
// device must not starve the others.
func pickPushErr(errs []error) error {
	var unavail error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, p4rt.ErrUnavailable) {
			if unavail == nil {
				unavail = err
			}
			continue
		}
		return err
	}
	return unavail
}

// sortedPorts lists a multicast group's member ports in ascending order.
func sortedPorts(members map[uint16]bool) []uint16 {
	ports := make([]uint16, 0, len(members))
	for p := range members {
		ports = append(ports, p)
	}
	slices.Sort(ports)
	return ports
}

// monitorRequests builds the per-table monitor covering every bound
// column.
func (c *Controller) monitorRequests() map[string]*ovsdb.MonitorRequest {
	cols := make(map[string]map[string]bool)
	add := func(table, col string) {
		m := cols[table]
		if m == nil {
			m = make(map[string]bool)
			cols[table] = m
		}
		m[col] = true
	}
	for _, b := range c.inputGen.Inputs {
		for _, col := range b.Columns {
			add(b.Table, col)
		}
		if _, ok := cols[b.Table]; !ok {
			cols[b.Table] = make(map[string]bool)
		}
	}
	for _, b := range c.inputGen.Aux {
		add(b.Table, b.Column)
	}
	out := make(map[string]*ovsdb.MonitorRequest, len(cols))
	for table, set := range cols {
		req := &ovsdb.MonitorRequest{}
		for col := range set {
			req.Columns = append(req.Columns, col)
		}
		slices.Sort(req.Columns)
		out[table] = req
	}
	return out
}

// handleOVSDB runs on the OVSDB client's delivery goroutine, with the ID
// of the transaction that produced the update.
func (c *Controller) handleOVSDB(txn uint64, tu ovsdb.TableUpdates) {
	ups, err := c.ovsdbUpdates(tu)
	if err != nil {
		c.fail(err)
		return
	}
	c.enqueue(event{source: "ovsdb", txnID: txn, updates: ups})
}

// enqueue submits an event unless the controller has stopped, reporting
// whether it was accepted. The evClosed flag is flipped under the write
// lock before Stop closes the channel, so a send can never race the
// close: in-flight senders hold the read lock, which Stop waits out
// (the loop keeps draining, so those sends cannot block forever).
func (c *Controller) enqueue(ev event) bool {
	c.evMu.RLock()
	defer c.evMu.RUnlock()
	if c.evClosed {
		return false
	}
	c.events <- ev
	return true
}

// ovsdbUpdates converts a monitor notification into engine updates.
func (c *Controller) ovsdbUpdates(tu ovsdb.TableUpdates) ([]engine.Update, error) {
	var ups []engine.Update
	for _, b := range c.inputGen.Inputs {
		table, ok := tu[b.Table]
		if !ok {
			continue
		}
		for uuid, ru := range table {
			oldRow, newRow := rowsOf(ru)
			if oldRow != nil {
				rec, err := b.RowRecord(uuid, oldRow)
				if err != nil {
					return nil, err
				}
				ups = append(ups, engine.Delete(b.Relation, rec))
			}
			if newRow != nil {
				rec, err := b.RowRecord(uuid, newRow)
				if err != nil {
					return nil, err
				}
				ups = append(ups, engine.Insert(b.Relation, rec))
			}
		}
	}
	for _, b := range c.inputGen.Aux {
		table, ok := tu[b.Table]
		if !ok {
			continue
		}
		for uuid, ru := range table {
			oldRow, newRow := rowsOf(ru)
			if oldRow != nil {
				recs, err := b.ElementRecords(uuid, oldRow)
				if err != nil {
					return nil, err
				}
				for _, rec := range recs {
					ups = append(ups, engine.Delete(b.Relation, rec))
				}
			}
			if newRow != nil {
				recs, err := b.ElementRecords(uuid, newRow)
				if err != nil {
					return nil, err
				}
				for _, rec := range recs {
					ups = append(ups, engine.Insert(b.Relation, rec))
				}
			}
		}
	}
	return ups, nil
}

// rowsOf reconstructs the full old and new rows of a RowUpdate. For a
// modify, Old carries only the changed columns, so the full old row is New
// overlaid with Old (in a fresh map: delivered rows are read-only).
func rowsOf(ru ovsdb.RowUpdate) (oldRow, newRow ovsdb.Row) {
	if ru.Old == nil || ru.New == nil {
		return ru.Old, ru.New
	}
	oldRow = make(ovsdb.Row, len(ru.New))
	for k, v := range ru.New {
		oldRow[k] = v
	}
	for k, v := range ru.Old {
		oldRow[k] = v
	}
	return oldRow, ru.New
}

// handleDigest runs on a p4rt client's delivery goroutine.
func (c *Controller) handleDigest(cs *classState, deviceID string, dl p4rt.DigestList) {
	var ups []engine.Update
	for _, b := range cs.gen.Digests {
		if b.Digest != dl.Digest {
			continue
		}
		for _, msg := range dl.Messages {
			rec, err := b.DigestRecordFrom(deviceID, msg)
			if err != nil {
				c.fail(err)
				return
			}
			ups = append(ups, engine.Insert(b.Relation, rec))
		}
	}
	if len(ups) > 0 {
		c.enqueue(event{source: "digest", updates: ups})
	}
}
