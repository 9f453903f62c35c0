package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ovsdb"
)

// workload is one set of inputs. Op counts per phase are constants,
// calibrated once at the commit that added the benchmark so a round
// takes 2-3 s there; the same counts run on every later commit, so
// table sizes, per-round sample counts and count metrics are identical
// across commits and only the number of rounds follows -seconds.
type workload struct {
	name, why string

	wal   bool // OVSDB server logs to a WAL (fsync off)
	subs  int  // subscriptions on the OnDelta tap; they are the sink
	learn bool // ops are frames from new MACs, not OVSDB transactions

	clients    int // generator-side OVSDB connections, one goroutine each
	slots      int // port ranges each client cycles through (half live)
	batch      int // ports per transaction
	trunkEvery int // every n-th port of a transaction is a 16-VLAN trunk
	window     int // learn ops outstanding in the throughput phase

	latOps, thrOps int // ops per round: latency phase, throughput phase
	traceOps       int // ops of the traced pass (also the probes' sample)
	fwdFrames      int // frames of the idle forwarding phase
}

var workloads = []*workload{
	{
		name: "churn_small",
		why:  "one-row port insert/delete commits with a WAL: per-message cost in jsonrpc, ovsdb, wal and p4rt dominates, engine is about a tenth",
		wal:  true, clients: 2, slots: 32, batch: 1,
		latOps: 400, thrOps: 12000, traceOps: 300, fwdFrames: 100000,
	},
	{
		name:    "bulk_reconfig",
		why:     "256-port transactions, a quarter trunks over 16 VLANs: output delta far exceeds input, so engine, conversion, batch encode and switch apply dominate and per-message cost is amortised",
		clients: 2, slots: 4, batch: 256, trunkEvery: 4,
		latOps: 12, thrOps: 40, traceOps: 12, fwdFrames: 100000,
	},
	{
		name:  "mac_learning",
		why:   "frames from new MACs learnt through digests while known-unicast frames are forwarded: data-plane-originated, un-coalesced, reads beside writes; bypasses ovsdb, wal and subscribe",
		learn: true, clients: 1, window: 64,
		latOps: 400, thrOps: 3000, traceOps: 300, fwdFrames: 20000,
	},
	{
		name:    "fanout_subs",
		why:     "one client's port churn delivered to 256 subscriptions, half filtered: 256 deliveries per op, so subscribe does most of the work",
		subs:    256,
		clients: 1, slots: 32, batch: 1,
		latOps: 150, thrOps: 1500, traceOps: 150, fwdFrames: 100000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// smoke is the same workload with tiny counts: every code path, no
// meaningful timing.
func (w *workload) smoke() *workload {
	s := *w
	s.latOps, s.thrOps, s.traceOps, s.fwdFrames = 4, 2*w.slots+8, 4, 500
	if w.batch > 1 {
		s.latOps, s.thrOps, s.traceOps = 2, 4, 2
	}
	if w.learn {
		s.thrOps = 2 * w.window
	}
	return &s
}

// churnVlan pins the dynamic ports of a subscribing workload to one VLAN
// so that every filtered subscription matches every op.
func (w *workload) churnVlan(nw *network) uint16 {
	if w.subs > 0 {
		return nw.vlans[0]
	}
	return 0
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64 // measuring time of the untraced rounds
	setups  int     // how many times to set up (the median is setup_s)
	traced  bool    // add the traced pass and the probes
	scratch string  // directory for the WAL and trace files
}

// round is what one round measured. OpsPerS and FwdPktsPerS are scaled
// to the quiet box's speed (see calib.go); RawOpsPerS is the wall-clock
// rate and Speed the box's speed during the throughput phase. OpP50Us is
// wall-clock and report-only.
type round struct {
	OpsPerS         float64 `json:"ops_per_s"`
	RawOpsPerS      float64 `json:"raw_ops_per_s"`
	Speed           float64 `json:"speed"`
	OpP50Us         float64 `json:"op_p50_us"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	FwdPktsPerS     float64 `json:"fwd_pkts_per_s"`
	Seconds         float64 `json:"seconds"`
}

// runner drives one workload on one booted stack.
type runner struct {
	w       *workload
	nw      *network
	st      *stack
	streams []*portStream
	learn   *learnStream
	fwd     []fwdFrame

	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[error]

	lat, ack []float64 // pooled over the untraced rounds, µs
	recorded []opSpec  // ops of the traced pass, for the probes
	counts   phaseCounts
}

// phaseCounts accumulates the wrappers' counters over the untraced
// throughput phases.
type phaseCounts struct {
	ops                            int64
	seconds                        float64
	ovsdbBytes, p4Bytes, subBytes  int64
	walBytes                       int64
	writes, updates, subDeliveries int64
}

// fwdFrame is one known-unicast frame and its ingress port.
type fwdFrame struct {
	port uint16
	data []byte
}

func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.firstErr.CompareAndSwap(nil, &err)
}

// setup boots the deployment and loads the network, returning once the
// switch holds it: SwitchCfg and the preloaded ports, one static host
// per port, each client's live slots, and the subscriptions.
func setup(w *workload, nw *network, scratch string) (*runner, error) {
	st, err := boot(w, nw, scratch)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, nw: nw, st: st}
	fatal := func(err error) (*runner, error) {
		st.close()
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	load := func(key uint64, ops []ovsdb.Operation) error {
		o := st.trk.expect(key, 1)
		if _, err := st.gens[0].TransactErr(database, ops...); err != nil {
			return err
		}
		return o.wait()
	}
	const chunk = 250
	for i := 0; i < len(nw.ports); i += chunk {
		var ops []ovsdb.Operation
		if i == 0 {
			ops = append(ops, ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true}))
		}
		for _, p := range nw.ports[i : i+chunk] {
			ops = append(ops, ovsdb.OpInsert("Port", p.row()))
		}
		if err := load(portKey(nw.ports[i].Num, true), ops); err != nil {
			return fatal(err)
		}
	}
	hosts := make([]ovsdb.Operation, len(nw.hosts))
	for i, h := range nw.hosts {
		hosts[i] = ovsdb.OpInsert("StaticMac", h.row())
	}
	if err := load(nw.hosts[0].MAC, hosts); err != nil {
		return fatal(err)
	}
	if w.learn {
		r.learn = newLearnStream(nw)
	} else {
		for c := 0; c < w.clients; c++ {
			ps, prefill := w.clientStream(nw, c)
			for i := range prefill {
				if err := load(prefill[i].key(), prefill[i].transact()); err != nil {
					return fatal(err)
				}
			}
			r.streams = append(r.streams, ps)
		}
	}
	if w.subs > 0 {
		if err := st.fan.open(w.subs, w.churnVlan(nw)); err != nil {
			return fatal(err)
		}
	}
	// Known-unicast frames between static hosts of one VLAN.
	for i := 0; i < 1024; i++ {
		src := nw.hosts[(i*7)%len(nw.hosts)]
		peers := nw.byVlan[src.Vlan]
		dst := nw.hosts[peers[(i*13)%len(peers)]]
		if dst.MAC == src.MAC {
			dst = nw.hosts[peers[(i*13+1)%len(peers)]]
		}
		r.fwd = append(r.fwd, fwdFrame{port: src.Port, data: frame(dst.MAC, src.MAC)})
	}
	if err := st.ctrl.Err(); err != nil {
		return fatal(err)
	}
	return r, nil
}

// need is how many deliveries sink one op.
func (r *runner) need() int {
	if r.w.subs > 0 {
		return r.w.subs
	}
	return 1
}

// issue sends one op from its origin; the caller waits for the sink.
func (r *runner) issue(client int, spec *opSpec, traced bool) *op {
	st := r.st
	o := st.trk.expect(spec.key(), r.need())
	if traced {
		st.tr.cur.Store(o)
	}
	r.attempted.Add(1)
	var err error
	o.origin = now()
	if spec.Kind == opLearn {
		err = st.sw.Inject(spec.In.Num, frame(spec.Dst, spec.MAC))
	} else {
		err = st.transact(client, spec)
	}
	o.ack = now()
	st.tr.mark(markAck)
	if err != nil {
		st.trk.abandon(o, err)
	}
	return o
}

// next draws and issues client's next op. A port op first waits until
// the previous op on its slot reached the sink; if that one never did,
// this one cannot be issued and counts as failed.
func (r *runner) next(client int, traced bool) *op {
	if r.w.learn {
		spec := r.learn.next()
		if traced {
			r.recorded = append(r.recorded, spec)
		}
		return r.issue(0, &spec, traced)
	}
	spec, sl := r.streams[client].next()
	if traced {
		r.recorded = append(r.recorded, spec)
	}
	if err := sl.last.wait(); err != nil {
		r.attempted.Add(1)
		o := r.st.trk.expect(spec.key(), 1)
		r.st.trk.abandon(o, fmt.Errorf("slot %d: previous op: %w", sl.base, err))
		return o
	}
	sl.last = r.issue(client, &spec, traced)
	return sl.last
}

// collect waits for every op and returns the ones that reached the sink.
func (r *runner) collect(issued []*op) []*op {
	done := issued[:0]
	for _, o := range issued {
		if err := o.wait(); err != nil {
			r.fail(err)
			continue
		}
		done = append(done, o)
	}
	return done
}

// latencyPhase runs n ops one at a time, origin → sink, and returns the
// completed ops.
func (r *runner) latencyPhase(n int, traced bool) []*op {
	var done []*op
	for i := 0; i < n; i++ {
		done = append(done, r.collect([]*op{r.next(i%r.w.clients, traced)})...)
	}
	return done
}

// throughputPhase runs n ops closed on the reply (port ops: one
// goroutine per client; learn ops: a window of outstanding frames beside
// the forwarding generator), drains them, and returns the completed ops
// and how many known-unicast frames were forwarded meanwhile.
func (r *runner) throughputPhase(n int) (done []*op, fwdFrames int64) {
	issued := make([]*op, 0, n)
	if r.w.learn {
		ok0 := r.st.fwdOK.Load()
		stop := make(chan struct{})
		var fwdWG sync.WaitGroup
		fwdWG.Add(1)
		go func() {
			defer fwdWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := &r.fwd[i%len(r.fwd)]
				if err := r.st.sw.Inject(f.port, f.data); err != nil {
					r.fail(err)
					return
				}
				fwdFrames++
			}
		}()
		for i := 0; i < n; i++ {
			if i >= r.w.window {
				issued[i-r.w.window].wait() // a failure is counted by collect
			}
			issued = append(issued, r.next(0, false))
		}
		done = r.collect(issued)
		close(stop)
		fwdWG.Wait()
		if got := r.st.fwdOK.Load() - ok0; got != fwdFrames {
			r.fail(fmt.Errorf("forwarded %d of %d known-unicast frames beside the learns", got, fwdFrames))
		}
		return done, fwdFrames
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]*op, 0, n/r.w.clients)
			for i := 0; i < n/r.w.clients; i++ {
				mine = append(mine, r.next(c, false))
			}
			mu.Lock()
			issued = append(issued, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return r.collect(issued), 0
}

// forwardPhase forwards n known-unicast frames with nothing else running
// and returns frames/s and the allocations each frame costs.
func (r *runner) forwardPhase(n int) (perS, allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	ok0 := r.st.fwdOK.Load()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f := &r.fwd[i%len(r.fwd)]
		if err := r.st.sw.Inject(f.port, f.data); err != nil {
			r.fail(err)
			return 0, 0, 0
		}
	}
	el := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if got := r.st.fwdOK.Load() - ok0; got != int64(n) {
		r.fail(fmt.Errorf("forwarded %d of %d known-unicast frames", got, n))
	}
	return float64(n) / el, float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// oneRound is a latency phase, an idle forwarding phase and a throughput
// phase. The two timed rates are scaled to the quiet box's speed by the
// calibrations around them; keep says whether the round's samples join
// the run's pools.
func (r *runner) oneRound(latOps, thrOps int, keep bool) round {
	runtime.GC()
	t0 := time.Now()
	var rd round

	lat := r.latencyPhase(latOps, false)
	lats := make([]float64, len(lat))
	for i, o := range lat {
		lats[i] = float64(o.sunk.Load()-o.origin) / 1e3
	}
	rd.OpP50Us = median(lats)

	var fwdPerS, fwdAllocs, fwdBytes float64
	fwdSpeed := speedOf(func() { fwdPerS, fwdAllocs, fwdBytes = r.forwardPhase(r.w.fwdFrames) })

	var done []*op
	var frames int64
	var m0, m1 runtime.MemStats
	var before, after phaseCounts
	rd.Speed = speedOf(func() {
		before = r.snapshotCounts()
		runtime.ReadMemStats(&m0)
		done, frames = r.throughputPhase(thrOps)
		runtime.ReadMemStats(&m1)
		after = r.snapshotCounts()
	})
	if len(done) > 0 {
		first, last := done[0].origin, done[0].sunk.Load()
		for _, o := range done {
			first = min(first, o.origin)
			last = max(last, o.sunk.Load())
		}
		secs := float64(last-first) / 1e9
		ops := float64(len(done))
		rd.RawOpsPerS = ops / secs
		rd.OpsPerS = rd.RawOpsPerS / rd.Speed
		// The forwarding generator's own allocations are not the learn
		// path's: take them out at the per-frame cost just measured.
		rd.AllocsPerOp = (float64(m1.Mallocs-m0.Mallocs) - float64(frames)*fwdAllocs) / ops
		rd.AllocBytesPerOp = (float64(m1.TotalAlloc-m0.TotalAlloc) - float64(frames)*fwdBytes) / ops
		rd.FwdPktsPerS = fwdPerS / fwdSpeed
		if r.w.learn {
			rd.FwdPktsPerS = float64(frames) / secs / rd.Speed
		}
		if keep {
			r.lat = append(r.lat, lats...)
			for _, o := range done {
				r.ack = append(r.ack, float64(o.ack-o.origin)/1e3)
			}
			r.counts.add(before, after, int64(len(done)), secs)
		}
	}
	rd.Seconds = time.Since(t0).Seconds()
	return rd
}

func (r *runner) snapshotCounts() phaseCounts {
	st := r.st
	c := phaseCounts{
		ovsdbBytes: st.ovsdbWire.total(), p4Bytes: st.p4Wire.total(), subBytes: st.subWire.total(),
		writes: st.dp.writes.Load(), updates: st.dp.updates.Load(),
	}
	if st.fan != nil {
		c.subDeliveries = st.fan.deliveries.Load()
	}
	return c
}

func (c *phaseCounts) add(before, after phaseCounts, ops int64, secs float64) {
	c.ops += ops
	c.seconds += secs
	c.ovsdbBytes += after.ovsdbBytes - before.ovsdbBytes
	c.p4Bytes += after.p4Bytes - before.p4Bytes
	c.subBytes += after.subBytes - before.subBytes
	c.writes += after.writes - before.writes
	c.updates += after.updates - before.updates
	c.subDeliveries += after.subDeliveries - before.subDeliveries
}

// heapLiveMiB is HeapAlloc after two forced collections (the second
// empties the sync.Pools, whose contents vary from run to run).
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// heapRound is the round after which live heap is sampled: a fixed
// point, so the learnt-MAC tables hold the same entries on every run
// however many rounds -seconds allows.
const (
	heapRound = 3
	minRounds = 3
)

// result is everything one workload's run produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Completed int64              `json:"completed"`
	Failed    int64              `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Correct   bool               `json:"correct"`
	OpCounts  map[string]int     `json:"op_counts_per_round"`
	SetupS    []float64          `json:"setup_s"`
	HeapMiB   float64            `json:"heap_live_mb"`
	Rounds    []round            `json:"rounds"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Seconds   float64            `json:"seconds"`
}

// runWorkload sets the workload up (cfg.setups times), warms it up, runs
// untraced rounds for cfg.seconds, optionally the traced pass and the
// probes, and checks the final state against the oracle.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	start := time.Now()
	nw := newNetwork(cfg.seed)
	res := &result{
		Workload: w.name, Seed: cfg.seed,
		OpCounts: map[string]int{"latency": w.latOps, "throughput": w.thrOps, "traced": w.traceOps, "forward": w.fwdFrames},
	}
	var r *runner
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.st.close()
		}
		runtime.GC()
		var secs float64
		var err error
		speed := speedOf(func() {
			t0 := time.Now()
			r, err = setup(w, nw, cfg.scratch)
			secs = time.Since(t0).Seconds()
		})
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, secs*speed)
	}
	defer r.st.close()

	r.oneRound(max(w.latOps/2, 1), max(w.thrOps/2, r.w.clients), false) // warm-up, discarded

	budget := time.Duration(cfg.seconds * float64(time.Second))
	measureStart := time.Now()
	for len(res.Rounds) < minRounds || time.Since(measureStart) < budget {
		res.Rounds = append(res.Rounds, r.oneRound(w.latOps, w.thrOps, true))
		if len(res.Rounds) == heapRound {
			res.HeapMiB = heapLiveMiB()
		}
	}

	if cfg.traced {
		var err error
		if res.PerLayer, err = r.tracedPass(cfg.scratch); err != nil {
			return nil, err
		}
	}

	if err := r.checkOracle(); err != nil {
		r.fail(err)
	}
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	res.Completed = res.Attempted - res.Failed
	if e := r.firstErr.Load(); e != nil {
		res.Error = (*e).Error()
	}
	res.Correct = res.Failed == 0
	res.EndToEnd = make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = median(res.samples(d.Name))
	}
	if res.PerLayer != nil {
		r.driverMetrics(res)
	}
	res.Seconds = time.Since(start).Seconds()
	return res, nil
}

// driverMetrics adds the report-only driver.* and trace.overhead rows.
func (r *runner) driverMetrics(res *result) {
	pl := res.PerLayer
	s := sortedCopy(r.lat)
	pl["driver.op_tail_pct"], pl["driver.op_p99_us"] = tail(s)
	pl["driver.samples"] = float64(len(s))
	pl["driver.ack_p50_us"] = median(r.ack)
	pl["driver.op_p50_us"] = median(res.samples("op_p50_us"))
	pl["driver.raw_ops_per_s"] = median(res.samples("raw_ops_per_s"))
	pl["driver.speed"] = median(res.samples("speed"))
	pl["driver.round_spread_pct"] = 100 * spread(res.samples("ops_per_s"))
	if untraced := pl["driver.op_p50_us"]; untraced > 0 {
		pl["trace.overhead_pct"] = 100 * (pl["trace.op_p50_us"] - untraced) / untraced
	}
	c := r.counts
	if c.ops > 0 {
		ops := float64(c.ops)
		pl["ovsdb.wire_bytes_per_op"] = float64(c.ovsdbBytes) / ops
		pl["p4rt.wire_bytes_per_op"] = float64(c.p4Bytes) / ops
		pl["subscribe.wire_bytes_per_op"] = float64(c.subBytes) / ops
		pl["subscribe.updates_per_s"] = float64(c.subDeliveries) / c.seconds
		if c.writes > 0 {
			pl["core.ops_per_write"] = ops / float64(c.writes)
			pl["core.updates_per_write"] = float64(c.updates) / float64(c.writes)
		}
	}
	pl["subscribe.evictions"] = 0
	if r.st.fan != nil {
		pl["subscribe.evictions"] = float64(r.st.fan.evictions())
	}
}
