package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one interval at a layer boundary, recorded by the benchmark's
// wrappers around the calls into the layer. Times are nanoseconds on the
// run clock.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the span's duration minus the part of it its children
// cover; overlapping children are counted once.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - covered
}

// opSpans turns one traced op's stage marks into its spans. The layer
// spans are contiguous: they tile origin → sink.
func opSpans(id int, o *op, learn, subs bool) []span {
	mk := func(m int) int64 { return o.marks[m].Load() }
	sink := o.sunk.Load()
	root := span{Op: id, Name: "op", Start: o.origin, End: sink}
	out := []span{root}
	add := func(name string, a, b int64) {
		// A callback on another CPU can be entered a moment before the
		// call that caused it has returned; clamp rather than go negative.
		out = append(out, span{Op: id, Name: name, Start: min(a, b), End: b, Parent: "op"})
	}
	if learn {
		add("switchsim.inject", o.origin, mk(markAck))
		add("p4rt.digest", mk(markAck), mk(markDeliver))
	} else {
		add("ovsdb.transact", o.origin, mk(markAck))
		add("ovsdb.deliver", o.origin, mk(markDeliver))
	}
	add("core.react", mk(markDeliver), mk(markWriteIn))
	add("p4rt.write", mk(markWriteIn), mk(markWriteOut))
	if subs {
		add("subscribe.publish", mk(markPublishIn), mk(markPublishOut))
		add("subscribe.deliver", mk(markPublishOut), sink)
	}
	return out
}

// spanP50s is the median duration of each span name, in µs, and the
// median time of an op that no layer span covers.
func spanP50s(spans []span) (p50 map[string]float64, untiledUs float64) {
	byName := make(map[string][]float64)
	byOp := make(map[int][]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	p50 = make(map[string]float64, len(byName))
	for name, ds := range byName {
		p50[name] = median(ds)
	}
	var gaps []float64
	for _, ss := range byOp {
		gaps = append(gaps, float64(selfTime(ss[0], ss[1:]))/1e3)
	}
	return p50, median(gaps)
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	SpanP50Us map[string]float64 `json:"span_p50_us"`
	UntiledUs float64            `json:"untiled_p50_us"`
	ProbesUs  map[string]float64 `json:"probe_us"`
	Spans     []span             `json:"spans"`
}

func (t *traceFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.Workload+".json"), b, 0o644)
}

// tracedPass is one extra latency-phase pass with span recording on (one
// op in flight, so a span's cause is unambiguous), followed by the
// isolated probes fed with what the pass captured. It returns the
// per-layer metrics.
func (r *runner) tracedPass(outDir string) (map[string]float64, error) {
	st := r.st
	before := r.model()
	state, err := snapshotSwitch(st.sw.Runtime())
	if err != nil {
		return nil, err
	}
	st.tr.on.Store(true)
	done := r.latencyPhase(r.w.traceOps, true)
	st.tr.on.Store(false)
	st.tr.cur.Store(nil)

	var spans []span
	lats := make([]float64, len(done))
	for i, o := range done {
		spans = append(spans, opSpans(i, o, r.w.learn, r.w.subs > 0)...)
		lats[i] = float64(o.sunk.Load()-o.origin) / 1e3
	}
	p50, untiled := spanP50s(spans)
	pl := map[string]float64{
		"trace.op_p50_us":      median(lats),
		"ovsdb.transact_us":    p50["ovsdb.transact"],
		"ovsdb.deliver_us":     p50["ovsdb.deliver"],
		"core.react_us":        p50["core.react"],
		"p4rt.write_us":        p50["p4rt.write"],
		"p4rt.digest_us":       p50["p4rt.digest"],
		"subscribe.publish_us": p50["subscribe.publish"],
		"subscribe.deliver_us": p50["subscribe.deliver"],
	}
	st.dp.capMu.Lock()
	batches := st.dp.captured
	st.dp.captured = nil
	st.dp.capMu.Unlock()

	pr := &prober{w: r.w, nw: r.nw, before: before, state: state, specs: r.recorded, batches: batches, scratch: outDir}
	if err := pr.run(pl); err != nil {
		return nil, err
	}
	pl["p4rt.wire_us"] = pl["p4rt.write_us"] - pl["switchsim.apply_us"]
	// What the probes explain of the traced op: the isolated cost of
	// each layer's public call on the op's path, RPC hops included. The
	// rest is queueing, scheduling and server-side render/encode that
	// only in-program spans can attribute.
	explained := 2*pl["jsonrpc.call_us"] + pl["engine.apply_us"] + pl["switchsim.apply_us"] +
		pl["subscribe.publish_us"] + pl["subscribe.deliver_us"]
	if r.w.learn {
		explained += pl["p4.process_ns"] / 1e3
	} else {
		explained += pl["ovsdb.commit_us"] + pl["wal.append_us"]
	}
	if t := pl["trace.op_p50_us"]; t > 0 {
		pl["trace.unattributed_pct"] = 100 * (t - explained) / t
	}
	tf := &traceFile{Workload: r.w.name, Seed: r.nw.seed, SpanP50Us: p50, UntiledUs: untiled, ProbesUs: map[string]float64{}, Spans: spans}
	for _, k := range []string{"jsonrpc.call_us", "ovsdb.commit_us", "wal.append_us", "engine.apply_us", "switchsim.apply_us"} {
		tf.ProbesUs[k] = pl[k]
	}
	return pl, tf.write(outDir)
}
