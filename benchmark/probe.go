package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/dl"
	"repro/internal/dl/engine"
	"repro/internal/jsonrpc"
	"repro/internal/ovsdb"
	"repro/internal/ovsdb/wal"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// prober times isolated calls into each layer's public functions, fed
// with what the traced pass captured: the ops it issued (specs), the
// write batches they became (batches), and the configuration (before)
// and switch state (state) they started from.
type prober struct {
	w       *workload
	nw      *network
	before  *model
	state   *switchState
	specs   []opSpec
	batches [][]p4rt.Update
	scratch string
}

// timed runs f n times and returns the median call time in µs and the
// process-wide allocations per call. Nothing else is running: the
// deployment is idle while the probes run.
func timed(n int, f func(i int) error) (us, allocs float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	ds := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, 0, err
		}
		ds[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&m1)
	return median(ds), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

func (p *prober) run(pl map[string]float64) error {
	set := func(prefix string, us, allocs float64) {
		pl[prefix+"_us"], pl[prefix+"_allocs"] = us, allocs
	}
	us, allocs, bytes, err := p.jsonrpcCall()
	if err != nil {
		return fmt.Errorf("jsonrpc probe: %w", err)
	}
	set("jsonrpc.call", us, allocs)
	pl["jsonrpc.call_bytes"] = bytes

	set("ovsdb.commit", 0, 0)
	set("wal.append", 0, 0)
	pl["wal.bytes_per_op"] = 0
	if !p.w.learn {
		vus, vallocs, _, err := p.ovsdbCommit(false)
		if err != nil {
			return fmt.Errorf("ovsdb probe: %w", err)
		}
		set("ovsdb.commit", vus, vallocs)
		if p.w.wal {
			dus, dallocs, bytes, err := p.ovsdbCommit(true)
			if err != nil {
				return fmt.Errorf("wal probe: %w", err)
			}
			set("wal.append", dus-vus, dallocs-vallocs)
			pl["wal.bytes_per_op"] = bytes
		}
	}

	us, allocs, outPerIn, err := p.engineApply()
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	set("engine.apply", us, allocs)
	pl["engine.out_per_in"] = outPerIn

	sw, err := p.state.restore()
	if err != nil {
		return err
	}
	us, allocs, err = timed(len(p.batches), func(i int) error { return sw.Write(p.batches[i]) })
	if err != nil {
		return fmt.Errorf("switchsim probe: %w", err)
	}
	set("switchsim.apply", us, allocs)

	if _, allocs, err = p.p4rtWrite(); err != nil {
		return fmt.Errorf("p4rt probe: %w", err)
	}
	pl["p4rt.write_allocs"] = allocs

	// Known-unicast forwarding through tables of the workload's size.
	var frames []fwdFrame
	for i, src := range p.nw.hosts {
		peers := p.nw.byVlan[src.Vlan]
		dst := p.nw.hosts[peers[(i+1)%len(peers)]]
		frames = append(frames, fwdFrame{port: src.Port, data: frame(dst.MAC, src.MAC)})
	}
	rt := sw.Runtime()
	us, allocs, err = timed(20000, func(i int) error {
		f := &frames[i%len(frames)]
		res, err := rt.Process(f.port, f.data)
		if err == nil && len(res.Outputs) != 1 {
			err = fmt.Errorf("known-unicast frame left on %d ports", len(res.Outputs))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("p4 probe: %w", err)
	}
	pl["p4.process_ns"], pl["p4.process_allocs"] = us*1e3, allocs

	pl["driver.gen_us_per_op"] = p.generator()
	return nil
}

// payloadSize is the median size of the workload's requests on its first
// RPC hop: the transact, or for learn ops the write batch.
func (p *prober) payloadSize() int {
	var sizes []int
	if p.w.learn {
		for _, b := range p.batches {
			raw, _ := json.Marshal(b)
			sizes = append(sizes, len(raw))
		}
	} else {
		for i := range p.specs {
			raw, _ := json.Marshal(p.specs[i].transact())
			sizes = append(sizes, len(raw))
		}
	}
	if len(sizes) == 0 {
		return 64
	}
	sort.Ints(sizes)
	return sizes[len(sizes)/2]
}

// jsonrpcCall times Conn.Call against an echo handler over loopback.
func (p *prober) jsonrpcCall() (us, allocs, bytes float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer ln.Close()
	srvc := make(chan *jsonrpc.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			srvc <- nil
			return
		}
		srvc <- jsonrpc.NewConn(nc, jsonrpc.HandlerFunc(func(_ *jsonrpc.Conn, _ string, params json.RawMessage) (any, *jsonrpc.RPCError) {
			return params, nil
		}))
	}()
	var wire wireCount
	nc, err := dialCounted(ln.Addr().String(), &wire)
	if err != nil {
		return 0, 0, 0, err
	}
	c := jsonrpc.NewConn(nc, nil)
	defer c.Close()
	if srv := <-srvc; srv != nil {
		defer srv.Close()
	}
	payload := []string{strings.Repeat("x", max(p.payloadSize()-4, 1))}
	const n = 500
	us, allocs, err = timed(n, func(int) error {
		var out json.RawMessage
		return c.Call("echo", payload, &out)
	})
	return us, allocs, float64(wire.total()) / n, err
}

// loadOps renders a model as the transactions that build it.
func loadOps(m *model) [][]ovsdb.Operation {
	out := [][]ovsdb.Operation{{ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true})}}
	var ops []ovsdb.Operation
	for _, pt := range m.ports {
		ops = append(ops, ovsdb.OpInsert("Port", pt.row()))
	}
	out = append(out, ops)
	ops = nil
	for _, h := range m.hosts {
		ops = append(ops, ovsdb.OpInsert("StaticMac", h.row()))
	}
	return append(out, ops)
}

func transactErr(db *ovsdb.Database, ops []ovsdb.Operation) error {
	for _, r := range db.Transact(ops) {
		if r.Error != "" {
			return fmt.Errorf("%s: %s", r.Error, r.Details)
		}
	}
	return nil
}

// ovsdbCommit times Database.Transact of the traced ops on a second
// database in the state they started from, with one no-op monitor;
// durable adds a WAL (fsync off) so the difference is the append, and
// the log's growth is the bytes each op appends.
func (p *prober) ovsdbCommit(durable bool) (us, allocs, walBytes float64, err error) {
	schema, err := snvs.Schema()
	if err != nil {
		return 0, 0, 0, err
	}
	db := ovsdb.NewDatabase(schema)
	logSize := func() int64 { return 0 }
	if durable {
		dir, err := os.MkdirTemp(p.scratch, "probe-wal-")
		if err != nil {
			return 0, 0, 0, err
		}
		defer os.RemoveAll(dir)
		log, _, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
		if err != nil {
			return 0, 0, 0, err
		}
		defer log.Close()
		db.AttachWAL(log)
		// A commit returns once its record is written, so sizes are current.
		logSize = func() (n int64) {
			files, _ := filepath.Glob(filepath.Join(dir, "*"))
			for _, f := range files {
				if fi, err := os.Stat(f); err == nil {
					n += fi.Size()
				}
			}
			return n
		}
	}
	reqs := make(map[string]*ovsdb.MonitorRequest)
	for name := range schema.Tables {
		reqs[name] = &ovsdb.MonitorRequest{}
	}
	mon, _, err := db.AddMonitor(reqs, func(uint64, ovsdb.TableUpdates) {})
	if err != nil {
		return 0, 0, 0, err
	}
	defer mon.Cancel()
	for _, ops := range loadOps(p.before) {
		if err := transactErr(db, ops); err != nil {
			return 0, 0, 0, err
		}
	}
	txns := make([][]ovsdb.Operation, len(p.specs))
	for i := range p.specs {
		txns[i] = p.specs[i].transact()
	}
	size0 := logSize()
	us, allocs, err = timed(len(txns), func(i int) error { return transactErr(db, txns[i]) })
	return us, allocs, float64(logSize()-size0) / float64(max(len(txns), 1)), err
}

// engineProgram compiles the control plane exactly as core.New does:
// declarations generated from the schema and the pipeline, plus the
// hand-written rules.
func engineProgram() (in, out *codegen.Generated, prog *dl.Program, err error) {
	schema, err := snvs.Schema()
	if err != nil {
		return nil, nil, nil, err
	}
	info, err := p4.BuildP4Info(snvs.Pipeline())
	if err != nil {
		return nil, nil, nil, err
	}
	if in, err = codegen.Generate(schema, nil, codegen.Options{}); err != nil {
		return nil, nil, nil, err
	}
	if out, err = codegen.Generate(nil, info, codegen.Options{WithMulticast: true}); err != nil {
		return nil, nil, nil, err
	}
	prog, err = dl.Compile(in.Decls + out.Decls + "\n" + snvs.Rules)
	return in, out, prog, err
}

// records converts rows of one table to engine updates through the
// generated bindings, as the controller does for monitor updates.
func records(in *codegen.Generated, table, uuid string, row ovsdb.Row, insert bool) ([]engine.Update, error) {
	mk := engine.Delete
	if insert {
		mk = engine.Insert
	}
	var ups []engine.Update
	for _, b := range in.Inputs {
		if b.Table != table {
			continue
		}
		rec, err := b.RowRecord(uuid, row)
		if err != nil {
			return nil, err
		}
		ups = append(ups, mk(b.Relation, rec))
	}
	for _, b := range in.Aux {
		if b.Table != table {
			continue
		}
		recs, err := b.ElementRecords(uuid, row)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			ups = append(ups, mk(b.Relation, rec))
		}
	}
	return ups, nil
}

// engineApply times Runtime.Apply of the traced ops, as records, on an
// snvs runtime preloaded to the state they started from.
func (p *prober) engineApply() (us, allocs, outPerIn float64, err error) {
	in, out, prog, err := engineProgram()
	if err != nil {
		return 0, 0, 0, err
	}
	rt, err := prog.NewRuntime(engine.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	var load []engine.Update
	add := func(table, uuid string, row ovsdb.Row, insert bool, to *[]engine.Update) error {
		ups, err := records(in, table, uuid, row, insert)
		*to = append(*to, ups...)
		return err
	}
	if err := add("SwitchCfg", "cfg", ovsdb.Row{"name": "snvs0", "flood_unknown": true}, true, &load); err != nil {
		return 0, 0, 0, err
	}
	for _, pt := range p.before.ports {
		if err := add("Port", "u-"+pt.Name, pt.row(), true, &load); err != nil {
			return 0, 0, 0, err
		}
	}
	for _, h := range p.before.hosts {
		if err := add("StaticMac", fmt.Sprintf("m-%d", h.MAC), h.row(), true, &load); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := rt.Apply(load); err != nil {
		return 0, 0, 0, err
	}
	var learn *codegen.DigestBinding // snvs has one digest
	for _, b := range out.Digests {
		learn = b
	}
	txns := make([][]engine.Update, len(p.specs))
	for i, s := range p.specs {
		if s.Kind == opLearn {
			rec, err := learn.DigestRecord([]uint64{s.MAC, uint64(s.In.Vlan), uint64(s.In.Num)})
			if err != nil {
				return 0, 0, 0, err
			}
			txns[i] = []engine.Update{engine.Insert(learn.Relation, rec)}
			continue
		}
		for _, pt := range s.Ports {
			if err := add("Port", "u-"+pt.Name, pt.row(), s.Kind == opInsert, &txns[i]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	var nin, nout int
	us, allocs, err = timed(len(txns), func(i int) error {
		delta, err := rt.Apply(txns[i])
		nin += len(txns[i])
		for _, z := range delta {
			nout += z.Len()
		}
		return err
	})
	if nin > 0 {
		outPerIn = float64(nout) / float64(nin)
	}
	return us, allocs, outPerIn, err
}

// p4rtWrite times Client.Write of the captured batches over loopback to
// a second switch in the state they started from.
func (p *prober) p4rtWrite() (us, allocs float64, err error) {
	sw, err := p.state.restore()
	if err != nil {
		return 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go sw.Serve(ln)
	defer sw.Close()
	c, err := p4rt.Dial(ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	return timed(len(p.batches), func(i int) error { return c.Write(p.batches[i]...) })
}

// generator times the benchmark's own per-op work against a null sink:
// drawing the op and rendering it as a request.
func (p *prober) generator() float64 {
	n := max(2000/max(p.w.batch, 1), 20)
	nw := newNetwork(p.nw.seed)
	t0 := time.Now()
	if p.w.learn {
		ls := newLearnStream(nw)
		for i := 0; i < n; i++ {
			o := ls.next()
			_ = frame(o.Dst, o.MAC)
		}
	} else {
		ps, _ := p.w.clientStream(nw, 0)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			o, _ := ps.next()
			_ = o.transact()
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(n)
}
