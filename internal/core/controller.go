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
// a single totally-ordered stream of transactions. The controller is a
// pure step (step.go: the engine, routing, conversion — what gets
// written) and the driver in this file (the event channel, coalescing,
// clocks and observability, device writes and failure latching).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// records the switch-applied stage. Detected by interface assertion.
type TxnWriter interface {
	WriteTxn(txn uint64, updates ...p4rt.Update) error
}

// ManagementPlane is the controller's view of the configuration database
// (implemented by *ovsdb.Client and *ovsdb.ResilientClient). Each monitor
// update carries the ID of the transaction that produced it (0 when
// unknown), so traces hold a complete commit→delta→push timeline; an
// update tagged ovsdb.SnapshotTxn is every monitored row, to reconcile.
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
	// CoalesceMaxTxns bounds how many adjacent commits or digest lists the
	// event loop merges into a single engine transaction before applying.
	// Only events already queued after the first are merged, and only
	// with events of the same source (OVSDB commits with commits, digest
	// lists with digest lists), so a lone event is never delayed. 0 or 1
	// disables coalescing (every commit or digest list applies
	// individually).
	// Merging amortizes the fixed per-apply cost (evaluation setup, delta
	// collection, data-plane write round trip) across a burst of small
	// commits or learns; trace and provenance attribution stay per commit.
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

// Controller is a running full-stack controller instance: the driver
// around its step.
type Controller struct {
	*step
	cfg      Config
	devs     map[string]DataPlane // device ID → its connection
	events   chan event
	done     chan struct{}
	stopOnce sync.Once
	evMu     sync.RWMutex
	evClosed bool

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
	// coalesceBatches counts applies that merged more than one commit or
	// digest list; coalescedTxns counts the events that rode in them.
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
	for _, src := range []string{"ovsdb", "digest", "initial", "resnapshot"} {
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
		"Engine applies that merged more than one commit or digest list.")
	c.m.coalescedTxns = reg.Counter("core_coalesced_txns_total",
		"Commits or digest lists merged into coalesced applies.")
	c.m.devPush = map[string]*obs.Histogram{}
	for _, cs := range c.classes {
		for _, id := range cs.devices {
			c.m.devPush[id] = reg.Histogram("core_device_push_seconds",
				"Per-device write-stream latency within a push.", nil, obs.L("device", id))
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
	// and the latency averages that answer "what did push latency look like".
	o := c.cfg.Obs
	o.TrackRate(obs.SeriesApplies, func() float64 {
		var sum uint64
		for _, ctr := range c.m.txnTotal { // never written after this setup
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

// event is one entry of the controller's queue: a transaction (an
// initial snapshot, a commit or a digest, with its engine updates) or a
// control event (a barrier, a resync), run on the loop between
// transactions. A resnapshot carries a fallback snapshot's rows instead
// of updates: what they change is known only when it runs.
type event struct {
	source   string
	txnID    uint64
	updates  []engine.Update
	control  func()
	snapshot ovsdb.TableUpdates
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
	c := &Controller{
		cfg:    cfg,
		devs:   make(map[string]DataPlane),
		events: make(chan event, 1024),
		done:   make(chan struct{}),
	}
	infos := make([]*p4.P4Info, len(classes))
	for i, cls := range classes {
		if len(cls.Devices) == 0 {
			return nil, fmt.Errorf("core: class %q has no devices", cls.Name)
		}
		for _, dev := range cls.Devices {
			info, err := dev.DP.GetP4Info()
			if err != nil {
				return nil, fmt.Errorf("core: class %q: fetching p4info: %w", cls.Name, err)
			}
			if infos[i] != nil && info.Program != infos[i].Program {
				return nil, fmt.Errorf("core: class %q: device %s runs %q, class runs %q",
					cls.Name, dev.ID, info.Program, infos[i].Program)
			}
			infos[i], c.devs[dev.ID] = info, dev.DP
		}
	}
	// An observed controller turns the engine's collection on: the dl_*
	// series, the profiler and the delta stage need its statistics, and
	// /debug/explain needs its provenance store.
	c.step, err = newStep(schema, cfg.Rules, classes, infos,
		engine.Options{Collect: cfg.Obs != nil})
	if err != nil {
		return nil, err
	}
	c.initObs()
	if cfg.Obs != nil {
		cfg.Obs.SetExplainer(c)
	}
	go c.loop()

	// Digest subscriptions feed the event queue, tagged with the
	// originating device. A self-healing device (*p4rt.ResilientClient)
	// reconciles each fresh session against the engine and publishes it
	// in one event.
	for id, dp := range c.devs {
		dp.OnDigest(func(dl p4rt.DigestList) { c.handleDigest(id, dl) })
		if rd, ok := dp.(reconnector); ok {
			rd.OnReconnect(func(cl *p4rt.Client, publish func() bool) error {
				return c.resyncThen(id, cl, publish)
			})
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

// Contents exposes a relation snapshot (diagnostics and tests), read on
// the event loop between transactions.
func (c *Controller) Contents(rel string) (recs []value.Record, err error) {
	if lerr := c.onLoop(func() { recs, err = c.rt.Contents(rel) }); lerr != nil {
		return nil, lerr
	}
	return recs, err
}

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
	if c.onLoop(func() {}) != nil {
		return c.Err()
	}
	return nil
}

// errLoopStopped is onLoop's error once the event loop has ended.
var errLoopStopped = errors.New("core: controller stopped")

// onLoop runs f on the event loop, between transactions, and waits for
// it. It is how every caller off the loop reads or changes what the loop
// owns (the engine, the origin maps, a device's resync).
func (c *Controller) onLoop(f func()) error {
	ran := make(chan struct{})
	if !c.enqueue(event{control: func() { f(); close(ran) }}) {
		return errLoopStopped
	}
	select {
	case <-ran:
		return nil
	case <-c.done:
		select {
		case <-ran: // f was the loop's last event
			return nil
		default:
			return errLoopStopped
		}
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
	// The monitor and digest callbacks can run before MonitorTxn has
	// returned the snapshot their changes follow: hold their events until
	// the initial event, then run them right after it, in arrival order.
	early := []event{}
	for ev := range c.events {
		if early != nil {
			if ev.source != "initial" {
				early = append(early, ev)
				continue
			}
			for _, ev := range append([]event{ev}, early...) {
				c.dispatch([]event{ev})
			}
			early = nil
			continue
		}
		// Coalescing may have pulled the next event off the queue; keep
		// dispatching until none is carried over.
		for {
			batch, next := c.coalesce(ev)
			c.dispatch(batch)
			if next == nil {
				break
			}
			ev = *next
		}
	}
}

// coalesce batches the events already queued after ev with it when
// they share its source and that source merges: monitor-delivered
// commits ("ovsdb") or digest lists ("digest"). The batch is bounded by
// CoalesceMaxTxns events and CoalesceMaxUpdates input updates. It never
// mixes sources, so core_txn_total{source} and the entry origins'
// Source stay exact. It also returns the first event it popped off the
// queue that must run after the batch (a barrier, resync, resnapshot or
// an event of the other source), or nil.
func (c *Controller) coalesce(ev event) ([]event, *event) {
	batch := []event{ev}
	if ev.source != "ovsdb" && ev.source != "digest" {
		return batch, nil
	}
	maxUpdates := c.cfg.CoalesceMaxUpdates
	if maxUpdates <= 0 {
		maxUpdates = defaultCoalesceMaxUpdates
	}
	for n := len(ev.updates); len(batch) < c.cfg.CoalesceMaxTxns && n < maxUpdates; {
		select {
		case next, ok := <-c.events:
			if !ok {
				// Closed mid-drain: dispatch the batch, the outer range
				// loop terminates right after.
				return batch, nil
			}
			if next.source != ev.source {
				return batch, &next
			}
			batch = append(batch, next)
			n += len(next.updates)
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// dispatch processes one batch: a control event immediately, a
// transaction (one event, or a coalesced run of commits) through the
// apply→observe→push sequence.
func (c *Controller) dispatch(batch []event) {
	ev := &batch[0]
	if ev.control != nil {
		ev.control()
		return
	}
	if c.Err() != nil {
		return // drain after failure
	}
	if ev.source == "resnapshot" {
		var err error
		if ev.updates, err = c.resnapshot(ev.snapshot); err != nil {
			c.fail(err)
			return
		}
	}
	// A coalesced batch is attributed as a whole to its last commit.
	var txn uint64
	inputs := 0
	for _, ev := range batch {
		inputs += len(ev.updates)
		if ev.txnID != 0 {
			txn = ev.txnID
		}
	}
	start := time.Now()
	delta, err := c.apply(batch)
	engineTime := time.Since(start)
	if err != nil {
		c.fail(fmt.Errorf("core: engine: %w", err))
		return
	}
	ruleSamples := c.observeEngine(batch, start, engineTime)
	c.noteInputs(batch)
	if k := len(batch); k > 1 {
		c.m.coalesceBatches.Inc()
		c.m.coalescedTxns.Add(uint64(k))
	}
	pushStart := time.Now()
	n, err := c.push(txn, ev.source, delta)
	pushTime := time.Since(pushStart)
	if err != nil {
		c.m.pushErrors.Inc()
		c.rec.Append(obs.Ev("core", "push.error").WithTxn(txn).
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
		c.cfg.OnDelta(txn, delta)
	}
	if c.tracer != nil {
		// Each merged commit gets its own push stage. An event with no
		// transaction (a digest list) has no trace to join.
		push := obs.Stage{Name: "push", Start: pushStart, End: pushStart.Add(pushTime)}.F("updates", int64(n))
		for _, ev := range batch {
			c.tracer.Record(ev.txnID, "core", push)
		}
	}
	// Budget checks run only after the push completed, so an incident
	// pinned for a slow delta still captures the full commit→push
	// timeline (and slow pushes pin the provenance of what they wrote).
	if o := c.cfg.Obs; o != nil {
		if o.BudgetExceeded(engineTime) {
			// With profiling on, the incident carries the pinned
			// transaction's own per-rule breakdown, so it answers *which*
			// rule made the delta slow, not just that it was slow.
			var detail any
			if len(ruleSamples) > 0 {
				detail = map[string][]obs.RuleSample{"rules": ruleSamples}
			}
			o.PinIncident("delta", txn, ev.source, engineTime, detail)
		}
		if o.BudgetExceeded(pushTime) {
			o.PinIncident("push", txn, ev.source, pushTime,
				c.prov.originsForTxn(txn, incidentOriginLimit))
		}
	}
	// The core_* series are the controller's only per-transaction record.
	c.m.txnTotal[ev.source].Inc()
	c.m.engineSecs.ObserveDuration(engineTime)
	c.m.pushSecs.ObserveDuration(pushTime)
	c.m.inputSize.Observe(float64(inputs))
	c.m.outputSize.Observe(float64(n))
	c.observeProvenance()
	if ev.source == "initial" {
		// Monitor established and initial sync pushed: the controller
		// is serving the database's current state.
		c.cfg.Obs.SetReady(true)
	}
}

// observeEngine translates the engine's per-transaction statistics into
// dl_* metrics, the workload profiler and the "delta" trace stage, and
// returns the transaction's per-rule breakdown for incident enrichment.
// Unobserved, the engine collects nothing and neither does this.
func (c *Controller) observeEngine(batch []event, start time.Time, engineTime time.Duration) []obs.RuleSample {
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
	ruleSamples := make([]obs.RuleSample, len(st.Rules))
	for i, r := range st.Rules {
		ruleSamples[i] = obs.RuleSample{
			ID: r.ID, Label: r.Label, Stratum: r.Stratum, Recursive: r.Recursive,
			Seedings: r.Seedings, Derivations: r.Derivations,
			DeltaTuples: r.DeltaTuples, EvalNs: int64(r.Duration),
		}
	}
	// Observe even an empty transaction: idle rules' EWMA costs decay
	// so stale hot spots sink out of the top-K.
	c.cfg.Obs.Prof().ObserveTxn(ruleSamples)
	c.publishMemory()
	if c.tracer != nil {
		// Each merged commit gets its own delta stage carrying its own
		// update count, so /debug/traces stays per-commit even when the
		// engine applied several commits at once; a digest list (txn 0)
		// has no trace.
		delta := obs.Stage{Name: "delta", Start: start, End: start.Add(engineTime)}
		for _, ev := range batch {
			sg := delta.F("input_updates", int64(len(ev.updates))).
				F("delta_size", int64(st.DeltaSize)).F("derivations", st.Derivations)
			if len(batch) > 1 {
				sg = sg.F("coalesced_txns", int64(len(batch)))
			}
			c.tracer.Record(ev.txnID, "core", sg)
		}
	}
	return ruleSamples
}

// push plans the delta's writes, writes every device's stream, and once
// all of them are acknowledged settles the plan's entry origins. It
// reports the delta's change count.
func (c *Controller) push(txn uint64, source string, delta engine.Delta) (int, error) {
	p, err := c.plan(delta, txn, source)
	if err != nil {
		return 0, err
	}
	for _, dw := range p.writes {
		dw.dp = c.devs[dw.id]
		if c.cfg.Obs != nil {
			dw.txn = txn // observed: TxnWriter devices extend the trace
		}
	}
	if source == "initial" {
		err = c.takeOver(p.writes)
	} else {
		err = c.writeDevices(p.writes, pushWorkers)
	}
	if err != nil {
		return p.changes, err
	}
	c.prov.settle(p.origins)
	return p.changes, nil
}

// takeOver is the initial sync. A device may hold what an earlier
// controller wrote, so each one that can be read is reconciled the way a
// reconnect is: read, drift, write. A device that cannot be read gets
// its planned writes. The error is ranked as writeDevices ranks it.
func (c *Controller) takeOver(writes []*devWrite) error {
	var errs []error
	for _, id := range sortedKeys(c.devs) {
		if tr, ok := c.devs[id].(TableReader); ok {
			errs = append(errs, c.doResync(id, tr))
			continue
		}
		for _, dw := range writes {
			if dw.id == id {
				errs = append(errs, c.flushObserved(dw))
			}
		}
	}
	return pickPushErr(errs)
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

// flushObserved writes one device's batches in order, stopping at the
// first error, and records per-device latency and batch-size metrics and,
// for a traced transaction, the device's write stage.
func (c *Controller) flushObserved(dw *devWrite) error {
	t0 := time.Now()
	tw, ok := dw.dp.(TxnWriter)
	useTxn := ok && dw.txn != 0
	var err error
	n := 0
	for _, b := range dw.batches {
		n += len(b)
		switch {
		case err != nil:
		case useTxn:
			err = tw.WriteTxn(dw.txn, b...)
		default:
			err = dw.dp.Write(b...)
		}
	}
	elapsed := time.Since(t0)
	c.m.devPush[dw.id].ObserveDuration(elapsed)
	c.m.devBatch.Observe(float64(n))
	failed := int64(0)
	if err != nil {
		failed = 1
	}
	c.tracer.Record(dw.txn, "core", obs.Stage{Name: "write", Start: t0, End: t0.Add(elapsed), Device: dw.id}.
		F("updates", int64(n)).F("failed", failed))
	return err
}

// writeDevices issues each device's write stream, fanning out across up to
// nw workers: the calling goroutine and nw-1 more. Per-device ordering is
// preserved (one worker owns a device's whole stream), all writes
// complete before the push returns (barrier), and on failure the error of
// the first device in delta order is reported.
func (c *Controller) writeDevices(writes []*devWrite, nw int) error {
	errs := make([]error, len(writes))
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < len(writes); i = int(next.Add(1)) - 1 {
			errs[i] = c.flushObserved(writes[i])
		}
	}
	workers := max(min(nw, len(writes)), 1)
	wg.Add(workers)
	for range workers - 1 {
		go work()
	}
	work()
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

// handleOVSDB runs on the OVSDB client's delivery goroutine, with the ID
// of the transaction that produced the update. A fallback snapshot
// becomes a resnapshot event, attributed as txn 0.
func (c *Controller) handleOVSDB(txn uint64, tu ovsdb.TableUpdates) {
	if txn == ovsdb.SnapshotTxn {
		c.enqueue(event{source: "resnapshot", snapshot: tu})
		return
	}
	ups, err := c.ovsdbUpdates(tu)
	if err != nil {
		c.fail(err)
		return
	}
	c.enqueue(event{source: "ovsdb", txnID: txn, updates: ups})
}

// handleDigest runs on a p4rt client's delivery goroutine.
func (c *Controller) handleDigest(device string, dl p4rt.DigestList) {
	ups, err := c.digestUpdates(device, dl)
	if err != nil {
		c.fail(err)
		return
	}
	if len(ups) > 0 {
		c.enqueue(event{source: "digest", updates: ups})
	}
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
