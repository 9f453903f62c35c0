package core_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/deploy"
	"repro/internal/dl/ast"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/snvs"
)

// The full-stack harness checks the paper's promise end to end: after any
// schedule of management-plane commits and restarts of the database
// server, the switches and the controller, the data plane holds what the
// rules derive from the database's final contents (Kreutz et al. §V's
// controller–switch consistency under failure). Each seed runs one random
// schedule on a real deployment over loopback TCP, waits for the stack to
// quiesce and then checks that
//
//   - no switch's tables drift from what the engine derives;
//   - the engine's input relations are the database's rows, as the codegen
//     bindings convert them;
//   - the engine's outputs equal NaiveEval over those inputs;
//   - Close leaves no goroutine behind.
//
// A failing seed prints its schedule; -run 'TestHarness/seed=N$' replays
// the same schedule (the timing of a real stack is not replayed).

const (
	harnessSeeds  = 32 // seeds 1..harnessSeeds
	harnessEvents = 40 // schedule events per seed

	harnessVlans = 5  // VLAN ids 1..harnessVlans
	harnessPorts = 16 // port numbers 1..harnessPorts
)

// harnessSwitches are the deployment's switches, one class.
var harnessSwitches = []string{"snvs0", "snvs1"}

func TestHarness(t *testing.T) {
	for seed := int64(1); seed <= harnessSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runHarness(t, seed) })
	}
}

// harness is one seed's run: the stack, the model of the rows the
// schedule has committed, and the schedule so far.
type harness struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	s     *deploy.Stack
	m     *rowModel
	sched []string
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d: %s\nschedule:\n  %s", h.seed, fmt.Sprintf(format, args...),
		strings.Join(h.sched, "\n  "))
}

func (h *harness) logf(format string, args ...any) {
	h.sched = append(h.sched, fmt.Sprintf(format, args...))
}

func runHarness(t *testing.T, seed int64) {
	base := runtime.NumGoroutine()
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	spec := deploy.Spec{Schema: schema, Rules: snvs.Rules, Classes: []deploy.Class{
		{Program: snvs.Pipeline(), IDs: harnessSwitches},
	}}
	if seed%2 == 1 {
		// Odd seeds run observed: the engine collects provenance and
		// writes carry their transaction.
		spec.Obs = obs.NewObserver()
	}
	s, err := deploy.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			s.Close()
		}
	}()
	h := &harness{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), s: s, m: newRowModel()}
	if spec.Obs != nil {
		h.logf("observed")
	}
	if seed%3 == 0 {
		// A third of the seeds keep no gap window: every database restart
		// after a missed commit resumes the monitor from a fresh snapshot,
		// which the controller reconciles against the engine's inputs.
		s.DB.SetGapWindow(-1)
		h.logf("windowless")
	}
	for i := 0; i < harnessEvents; i++ {
		h.event()
	}
	h.checkConverged(schema)

	s.Close()
	closed = true
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			h.fatalf("%d goroutines after Close, %d before Start:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// event runs one schedule event. Commits go over the wire through the
// controller's management client while the database server runs and the
// controller holds it, and straight to the database otherwise.
func (h *harness) event() {
	switch r := h.rng.Intn(10); {
	case r < 6:
		h.commitWire()
	case r < 7:
		h.logf("kill %s", deploy.DB)
		h.s.Kill(deploy.DB)
		h.directCommits()
		h.logf("restart %s", deploy.DB)
		if err := h.s.Restart(deploy.DB); err != nil {
			h.fatalf("restart %s: %v", deploy.DB, err)
		}
	case r < 9:
		id := harnessSwitches[h.rng.Intn(len(harnessSwitches))]
		h.logf("kill %s", id)
		h.s.Kill(id)
		for n := h.rng.Intn(3); n > 0; n-- {
			h.commitWire()
		}
		h.logf("restart %s", id)
		if err := h.s.Restart(id); err != nil {
			h.fatalf("restart %s: %v", id, err)
		}
	default:
		h.logf("stop controller")
		h.s.Ctrl.Stop()
		h.directCommits()
		h.logf("restart controller")
		if err := h.s.RestartController(); err != nil {
			h.fatalf("restart controller: %v", err)
		}
	}
}

// directCommits commits one to three transactions straight to the
// database, as another client of the server would while the controller
// cannot see them.
func (h *harness) directCommits() {
	for n := 1 + h.rng.Intn(3); n > 0; n-- {
		ops, desc := h.m.txn(h.rng)
		h.logf("commit direct: %s", desc)
		for i, r := range h.s.DB.Transact(ops) {
			if r.Error != "" {
				h.fatalf("direct commit, op %d: %s (%s)", i, r.Error, r.Details)
			}
		}
	}
}

// commitWire commits one transaction through the management client. A
// call that fails without a reply never reached a running server (the
// schedule kills none while a call is in flight), so it is retried until
// the client has redialed.
func (h *harness) commitWire() {
	ops, desc := h.m.txn(h.rng)
	h.logf("commit: %s", desc)
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := h.s.MP.TransactErr(h.s.DB.Schema().Name, ops...)
		if err == nil {
			return
		}
		if res != nil {
			h.fatalf("commit: %v", err)
		}
		if time.Now().After(deadline) {
			h.fatalf("commit: no connection: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkConverged waits until the stack has quiesced into the invariant,
// failing on a controller error or when it does not within the deadline,
// then holds the engine's outputs to NaiveEval over the database's rows.
func (h *harness) checkConverged(schema *ovsdb.DatabaseSchema) {
	gen, err := codegen.Generate(schema, nil, codegen.Options{})
	if err != nil {
		h.fatalf("%v", err)
	}
	want := h.dbInputs(gen)
	deadline := time.Now().Add(30 * time.Second)
	for {
		why := h.mismatch(want)
		if why == "" {
			break
		}
		if time.Now().After(deadline) {
			h.fatalf("no convergence: %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.logf("converged")

	naive, err := engine.NaiveEval(h.s.Ctrl.Program().Checked, want)
	if err != nil {
		h.fatalf("NaiveEval: %v", err)
	}
	outputs := h.s.Ctrl.OutputRelations()
	got, err := h.s.Ctrl.LoopContents(outputs)
	if err != nil {
		h.fatalf("engine outputs: %v", err)
	}
	for _, rel := range outputs {
		if d := diffRecords(got[rel], naive[rel]); d != "" {
			h.fatalf("output %s differs from NaiveEval: %s", rel, d)
		}
	}
}

// mismatch returns why the stack is not (yet) in the invariant, or "".
// A controller that has failed never recovers: that is fatal at once.
func (h *harness) mismatch(want map[string][]value.Record) string {
	ctrl := h.s.Ctrl
	if err := ctrl.Err(); err != nil {
		h.fatalf("controller failed: %v", err)
	}
	if !h.s.MP.Connected() {
		return "management client not connected"
	}
	for _, id := range harnessSwitches {
		if !h.s.Device(id).Connected() {
			return id + " not connected"
		}
	}
	rels := sortedKeys(want)
	got, err := ctrl.LoopContents(rels)
	if err != nil {
		return err.Error()
	}
	for _, rel := range rels {
		if d := diffRecords(got[rel], want[rel]); d != "" {
			return fmt.Sprintf("input %s differs from the database: %s", rel, d)
		}
	}
	for _, id := range harnessSwitches {
		n, err := ctrl.DriftCount(id, h.s.Device(id))
		if err != nil {
			return fmt.Sprintf("drift of %s: %v", id, err)
		}
		if n != 0 {
			return fmt.Sprintf("%s drifts by %d entries", id, n)
		}
	}
	return ""
}

// dbInputs converts the database's rows through the codegen bindings
// into the records every input relation should hold. Input relations no
// table binds (the learnt MACs of digests) are empty: the schedule sends
// no frames.
func (h *harness) dbInputs(gen *codegen.Generated) map[string][]value.Record {
	want := make(map[string][]value.Record)
	for _, rel := range h.s.Ctrl.Program().Checked.Relations {
		if rel.Role == ast.RoleInput {
			want[rel.Name] = nil
		}
	}
	rows := func(table string) []ovsdb.Row {
		res := h.s.DB.Transact([]ovsdb.Operation{ovsdb.OpSelect(table)})
		if res[0].Error != "" {
			h.fatalf("select %s: %s", table, res[0].Error)
		}
		return res[0].Rows
	}
	for _, b := range gen.Inputs {
		for _, row := range rows(b.Table) {
			rec, err := b.RowRecord(string(row["_uuid"].(ovsdb.UUID)), row)
			if err != nil {
				h.fatalf("%v", err)
			}
			want[b.Relation] = append(want[b.Relation], rec)
		}
	}
	for _, b := range gen.Aux {
		for _, row := range rows(b.Table) {
			recs, err := b.ElementRecords(string(row["_uuid"].(ovsdb.UUID)), row)
			if err != nil {
				h.fatalf("%v", err)
			}
			want[b.Relation] = append(want[b.Relation], recs...)
		}
	}
	return want
}

// diffRecords compares two relation contents as sets.
func diffRecords(got, want []value.Record) string {
	in := func(recs []value.Record) map[string]value.Record {
		m := make(map[string]value.Record, len(recs))
		for _, r := range recs {
			m[r.Key()] = r
		}
		return m
	}
	g, w := in(got), in(want)
	var missing, extra []string
	for k, r := range w {
		if _, ok := g[k]; !ok {
			missing = append(missing, r.String())
		}
	}
	for k, r := range g {
		if _, ok := w[k]; !ok {
			extra = append(extra, r.String())
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	slices.Sort(missing)
	slices.Sort(extra)
	return fmt.Sprintf("missing %v, extra %v", missing, extra)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// --- the committed rows -----------------------------------------------

// rowModel is what the schedule has committed, so that every generated
// operation succeeds: names, port numbers, MACs and mirror sources stay
// unique, and updates and deletes name rows that exist. The invariant is
// checked against the database itself, not against this model.
type rowModel struct {
	ports   map[string]portRow // by name
	macs    map[int64]macRow   // StaticMac by mac
	acls    map[int64]bool     // Acl: src_mac → deny
	mirrors map[int64]int64    // Mirror: src_port → dst_port
	cfg     *bool              // SwitchCfg snvs0's flood_unknown; nil: no row
	serial  int64
}

type portRow struct {
	num    int64
	tag    int64   // access ports
	trunks []int64 // trunk ports; nil for access
}

type macRow struct{ vlan, port int64 }

func newRowModel() *rowModel {
	return &rowModel{
		ports:   map[string]portRow{},
		macs:    map[int64]macRow{},
		acls:    map[int64]bool{},
		mirrors: map[int64]int64{},
	}
}

// txn generates one transaction of one to three operations and describes
// it for the schedule.
func (m *rowModel) txn(rng *rand.Rand) ([]ovsdb.Operation, string) {
	var ops []ovsdb.Operation
	var desc []string
	for n := 1 + rng.Intn(3); n > 0; n-- {
		op, d := m.op(rng)
		ops = append(ops, op)
		desc = append(desc, d)
	}
	return ops, strings.Join(desc, "; ")
}

func (m *rowModel) op(rng *rand.Rand) (ovsdb.Operation, string) {
	switch r := rng.Intn(10); {
	case r < 5:
		return m.portOp(rng)
	case r < 7:
		return m.macOp(rng)
	case r < 8:
		return m.aclOp(rng)
	case r < 9:
		return m.mirrorOp(rng)
	default:
		return m.cfgOp(rng)
	}
}

func vlan(rng *rand.Rand) int64    { return 1 + rng.Int63n(harnessVlans) }
func portNum(rng *rand.Rand) int64 { return 1 + rng.Int63n(harnessPorts) }

// newPort draws an access or trunk configuration for port num.
func newPort(rng *rand.Rand, num int64) portRow {
	p := portRow{num: num}
	if rng.Intn(3) == 0 {
		p.trunks = []int64{}
		for v := int64(1); v <= harnessVlans; v++ {
			if rng.Intn(2) == 0 {
				p.trunks = append(p.trunks, v)
			}
		}
	} else {
		p.tag = vlan(rng)
	}
	return p
}

func (p portRow) row() map[string]ovsdb.Value {
	atoms := make([]ovsdb.Atom, len(p.trunks))
	for i, v := range p.trunks {
		atoms[i] = v
	}
	mode := "access"
	if p.trunks != nil {
		mode = "trunk"
	}
	return map[string]ovsdb.Value{
		"port_num": p.num, "vlan_mode": mode, "tag": p.tag, "trunks": ovsdb.NewSet(atoms...),
	}
}

func (p portRow) String() string {
	if p.trunks == nil {
		return fmt.Sprintf("{num %d access %d}", p.num, p.tag)
	}
	return fmt.Sprintf("{num %d trunk %v}", p.num, p.trunks)
}

func (m *rowModel) portOp(rng *rand.Rand) (ovsdb.Operation, string) {
	used := map[int64]bool{}
	for _, p := range m.ports {
		used[p.num] = true
	}
	var free []int64
	for n := int64(1); n <= harnessPorts; n++ {
		if !used[n] {
			free = append(free, n)
		}
	}
	names := sortedKeys(m.ports)
	if len(names) == 0 || (len(free) > 0 && rng.Intn(2) == 0) {
		m.serial++
		name := fmt.Sprintf("p%d", m.serial)
		p := newPort(rng, free[rng.Intn(len(free))])
		m.ports[name] = p
		row := p.row()
		row["name"] = name
		return ovsdb.OpInsert("Port", row), "insert Port " + name + p.String()
	}
	name := names[rng.Intn(len(names))]
	where := ovsdb.Cond("name", "==", name)
	if rng.Intn(2) == 0 {
		delete(m.ports, name)
		return ovsdb.OpDelete("Port", where), "delete Port " + name
	}
	p := newPort(rng, m.ports[name].num)
	m.ports[name] = p
	return ovsdb.OpUpdate("Port", p.row(), where), "update Port " + name + p.String()
}

func (m *rowModel) macOp(rng *rand.Rand) (ovsdb.Operation, string) {
	macs := sortedKeys(m.macs)
	if len(macs) == 0 || rng.Intn(2) == 0 {
		m.serial++
		mac := 0x02_0000_0000_00 + m.serial
		r := macRow{vlan: vlan(rng), port: portNum(rng)}
		m.macs[mac] = r
		return ovsdb.OpInsert("StaticMac", map[string]ovsdb.Value{"mac": mac, "vlan": r.vlan, "port": r.port}),
			fmt.Sprintf("insert StaticMac %#x{vlan %d port %d}", mac, r.vlan, r.port)
	}
	mac := macs[rng.Intn(len(macs))]
	where := ovsdb.Cond("mac", "==", mac)
	if rng.Intn(2) == 0 {
		delete(m.macs, mac)
		return ovsdb.OpDelete("StaticMac", where), fmt.Sprintf("delete StaticMac %#x", mac)
	}
	r := macRow{vlan: vlan(rng), port: portNum(rng)}
	m.macs[mac] = r
	return ovsdb.OpUpdate("StaticMac", map[string]ovsdb.Value{"vlan": r.vlan, "port": r.port}, where),
		fmt.Sprintf("update StaticMac %#x{vlan %d port %d}", mac, r.vlan, r.port)
}

func (m *rowModel) aclOp(rng *rand.Rand) (ovsdb.Operation, string) {
	macs := sortedKeys(m.acls)
	if len(macs) == 0 || rng.Intn(2) == 0 {
		m.serial++
		mac := 0x04_0000_0000_00 + m.serial
		deny := rng.Intn(2) == 0
		m.acls[mac] = deny
		return ovsdb.OpInsert("Acl", map[string]ovsdb.Value{"src_mac": mac, "deny": deny}),
			fmt.Sprintf("insert Acl %#x{deny %t}", mac, deny)
	}
	mac := macs[rng.Intn(len(macs))]
	where := ovsdb.Cond("src_mac", "==", mac)
	if rng.Intn(2) == 0 {
		delete(m.acls, mac)
		return ovsdb.OpDelete("Acl", where), fmt.Sprintf("delete Acl %#x", mac)
	}
	m.acls[mac] = !m.acls[mac]
	return ovsdb.OpUpdate("Acl", map[string]ovsdb.Value{"deny": m.acls[mac]}, where),
		fmt.Sprintf("update Acl %#x{deny %t}", mac, m.acls[mac])
}

func (m *rowModel) mirrorOp(rng *rand.Rand) (ovsdb.Operation, string) {
	srcs := sortedKeys(m.mirrors)
	src := portNum(rng)
	if _, taken := m.mirrors[src]; len(srcs) == 0 || (!taken && rng.Intn(2) == 0) {
		dst := portNum(rng)
		m.mirrors[src] = dst
		return ovsdb.OpInsert("Mirror", map[string]ovsdb.Value{"src_port": src, "dst_port": dst}),
			fmt.Sprintf("insert Mirror %d→%d", src, dst)
	}
	src = srcs[rng.Intn(len(srcs))]
	where := ovsdb.Cond("src_port", "==", src)
	if rng.Intn(2) == 0 {
		delete(m.mirrors, src)
		return ovsdb.OpDelete("Mirror", where), fmt.Sprintf("delete Mirror %d", src)
	}
	dst := portNum(rng)
	m.mirrors[src] = dst
	return ovsdb.OpUpdate("Mirror", map[string]ovsdb.Value{"dst_port": dst}, where),
		fmt.Sprintf("update Mirror %d→%d", src, dst)
}

func (m *rowModel) cfgOp(rng *rand.Rand) (ovsdb.Operation, string) {
	where := ovsdb.Cond("name", "==", "snvs0")
	switch {
	case m.cfg == nil:
		flood := rng.Intn(4) != 0
		m.cfg = &flood
		return ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": flood}),
			fmt.Sprintf("insert SwitchCfg{flood %t}", flood)
	case rng.Intn(4) == 0:
		m.cfg = nil
		return ovsdb.OpDelete("SwitchCfg", where), "delete SwitchCfg"
	default:
		flood := !*m.cfg
		m.cfg = &flood
		return ovsdb.OpUpdate("SwitchCfg", map[string]ovsdb.Value{"flood_unknown": flood}, where),
			fmt.Sprintf("update SwitchCfg{flood %t}", flood)
	}
}
