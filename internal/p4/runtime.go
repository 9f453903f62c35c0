package p4

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// FieldMatch is the runtime value of one table key in an entry. Which
// members are meaningful depends on the key's match kind:
//
//	exact:    Value
//	lpm:      Value, PrefixLen
//	ternary:  Value, Mask
//	optional: Value, Wildcard
//
// On the wire a match carries Value and only those other members that are
// set, as P4Runtime's FieldMatch oneof does: an exact match is
// {"Value":v}. An absent member decodes as zero, so the form is lossless
// and a peer that sends every member still decodes to the same value.
type FieldMatch struct {
	Value     uint64
	Mask      uint64 `json:",omitempty"`
	PrefixLen int    `json:",omitempty"`
	Wildcard  bool   `json:",omitempty"`
}

// Entry is one installed table entry.
type Entry struct {
	Matches  []FieldMatch
	Priority int // higher wins (ternary/optional tables)
	Action   string
	Params   []uint64
}

// appendEntryKey appends the canonical identity encoding of an entry's
// match to dst, 18 bytes per field. Lookups encode into a keyBuf on the
// stack and index with m[string(key)], which does not allocate; only a
// key that is stored becomes a string.
func appendEntryKey(dst []byte, matches []FieldMatch) []byte {
	for _, m := range matches {
		dst = binary.BigEndian.AppendUint64(dst, m.Value)
		dst = binary.BigEndian.AppendUint64(dst, m.Mask)
		wildcard := byte(0)
		if m.Wildcard {
			wildcard = 1
		}
		dst = append(dst, byte(m.PrefixLen), wildcard)
	}
	return dst
}

// keyBuf is stack room for the entry key of up to 16 fields.
type keyBuf [16 * 18]byte

// entry is an installed Entry with its action resolved at insert time
// and its key in entries, kept so that removing it builds no key string.
type entry struct {
	Entry
	act *action
	key string
}

// maskGroup is one tuple-space class: every entry whose matches reduce to
// the same effective-mask vector lives in one group, indexed by the masked
// key-field values. Entries sharing a slot match exactly the same packets,
// so slots keep entries sorted by descending priority and only the head is
// ever a lookup candidate.
type maskGroup struct {
	sig         string   // encoded mask vector (group identity)
	masks       []uint64 // effective mask per key field
	totalPrefix int      // summed LPM prefix bits (tie-break rank)
	maxPriority int      // max entry priority across the group
	byKey       map[string][]*entry
}

// tableState holds installed entries for one table.
type tableState struct {
	table *Table
	// An all-exact table keys its entries by their values alone
	// (appendExactKey), the key a packet's lookup builds from its fields;
	// other tables key them by appendEntryKey and search groups.
	allExact bool
	entries  map[string]*entry
	// groups/ordered implement tuple-space search for tables with
	// lpm/ternary/optional keys: one hash probe per distinct mask vector
	// instead of a scan over all entries. ordered is sorted by
	// (maxPriority desc, totalPrefix desc) so lookups can stop early.
	groups   map[string]*maskGroup
	ordered  []*maskGroup
	keySlots []int   // value-vector slot of each key
	defact   *action // nil: a miss is a no-op
	// hits/misses are atomic: lookups run under the runtime's read lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	// errNoEntry is a delete's miss, built once: a miss allocates nothing.
	errNoEntry error
}

func newTableState(t *Table) *tableState {
	allExact := true
	for _, k := range t.Keys {
		if k.Match != MatchExact {
			allExact = false
		}
	}
	return &tableState{
		table:      t,
		allExact:   allExact,
		entries:    make(map[string]*entry),
		groups:     make(map[string]*maskGroup),
		errNoEntry: fmt.Errorf("p4: table %q: no such entry", t.Name),
	}
}

// effectiveMasks reduces an entry's matches to the per-field bit masks a
// packet value is compared under. The masks reproduce the per-kind
// semantics of matches() exactly: exact and concrete-optional compare the
// full value, lpm compares the bits at and above the prefix shift (with a
// zero-length prefix matching everything), ternary compares under the
// entry's mask verbatim, and wildcard-optional compares nothing.
func (ts *tableState) effectiveMasks(e *entry, masks []uint64) []uint64 {
	for i, k := range ts.table.Keys {
		m := e.Matches[i]
		switch k.Match {
		case MatchLPM:
			if m.PrefixLen == 0 {
				masks = append(masks, 0)
			} else {
				masks = append(masks, ^uint64(0)<<uint(k.Bits-m.PrefixLen))
			}
		case MatchTernary:
			masks = append(masks, m.Mask)
		case MatchOptional:
			if m.Wildcard {
				masks = append(masks, 0)
			} else {
				masks = append(masks, ^uint64(0))
			}
		default: // exact
			masks = append(masks, ^uint64(0))
		}
	}
	return masks
}

// appendMaskedKey encodes vals&masks into buf, the group's slot key.
func appendMaskedKey(buf []byte, vals, masks []uint64) []byte {
	for i, v := range vals {
		buf = binary.BigEndian.AppendUint64(buf, v&masks[i])
	}
	return buf
}

// groupInsert adds e to its tuple-space group, creating the group on
// first use, and keeps ordered sorted. Caller holds the write lock.
func (ts *tableState) groupInsert(e *entry) {
	var mbuf [16]uint64
	masks := ts.effectiveMasks(e, mbuf[:0])
	var kbuf [128]byte
	sig := appendMaskedKey(kbuf[:0], masks, allOnes(len(masks)))
	g := ts.groups[string(sig)]
	if g == nil {
		g = &maskGroup{
			sig:         string(sig),
			masks:       append([]uint64(nil), masks...),
			totalPrefix: ts.totalPrefix(e),
			maxPriority: e.Priority,
			byKey:       make(map[string][]*entry),
		}
		ts.groups[g.sig] = g
		ts.ordered = append(ts.ordered, g)
	} else if e.Priority > g.maxPriority {
		g.maxPriority = e.Priority
	}
	vals := make([]uint64, len(e.Matches))
	for i, m := range e.Matches {
		vals[i] = m.Value
	}
	key := string(appendMaskedKey(kbuf[:0], vals, g.masks))
	slot := append(g.byKey[key], e)
	sort.SliceStable(slot, func(i, j int) bool { return slot[i].Priority > slot[j].Priority })
	g.byKey[key] = slot
	ts.sortGroups()
}

// groupDelete removes the entry (by pointer identity) from its group,
// dropping the group when it empties. Caller holds the write lock.
func (ts *tableState) groupDelete(e *entry) {
	var mbuf [16]uint64
	masks := ts.effectiveMasks(e, mbuf[:0])
	var kbuf [128]byte
	sig := appendMaskedKey(kbuf[:0], masks, allOnes(len(masks)))
	g := ts.groups[string(sig)]
	if g == nil {
		return
	}
	vals := make([]uint64, len(e.Matches))
	for i, m := range e.Matches {
		vals[i] = m.Value
	}
	key := string(appendMaskedKey(kbuf[:0], vals, g.masks))
	slot := g.byKey[key]
	for i, se := range slot {
		if se == e {
			slot = append(slot[:i], slot[i+1:]...)
			break
		}
	}
	if len(slot) == 0 {
		delete(g.byKey, key)
	} else {
		g.byKey[key] = slot
	}
	if len(g.byKey) == 0 {
		delete(ts.groups, g.sig)
		for i, og := range ts.ordered {
			if og == g {
				ts.ordered = append(ts.ordered[:i], ts.ordered[i+1:]...)
				break
			}
		}
	} else if e.Priority == g.maxPriority {
		g.maxPriority = 0
		first := true
		for _, s := range g.byKey {
			if first || s[0].Priority > g.maxPriority {
				g.maxPriority = s[0].Priority
				first = false
			}
		}
	}
	ts.sortGroups()
}

func (ts *tableState) sortGroups() {
	sort.SliceStable(ts.ordered, func(i, j int) bool {
		a, b := ts.ordered[i], ts.ordered[j]
		if a.maxPriority != b.maxPriority {
			return a.maxPriority > b.maxPriority
		}
		return a.totalPrefix > b.totalPrefix
	})
}

var onesBuf = func() []uint64 {
	b := make([]uint64, 16)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}()

func allOnes(n int) []uint64 {
	if n <= len(onesBuf) {
		return onesBuf[:n]
	}
	b := make([]uint64, n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

// appendExactKey appends an all-exact table's entry key to dst: the
// values, 8 bytes a field, as lookup encodes a packet's.
func appendExactKey(dst []byte, matches []FieldMatch) []byte {
	for _, m := range matches {
		dst = binary.BigEndian.AppendUint64(dst, m.Value)
	}
	return dst
}

// appendKey appends the key ts.entries holds an entry with matches under.
func (ts *tableState) appendKey(dst []byte, matches []FieldMatch) []byte {
	if ts.allExact {
		return appendExactKey(dst, matches)
	}
	return appendEntryKey(dst, matches)
}

// lookup finds the best matching entry for the key field values.
//
// Tables with lpm/ternary/optional keys use tuple-space search (the Open
// vSwitch classifier idiom): one exact-hash probe per distinct mask
// vector, walking groups in (maxPriority, totalPrefix) order so the scan
// stops as soon as no remaining group can beat the current best. Cost is
// O(#mask vectors), not O(#entries) — a 10k-route LPM table with 24
// distinct prefix lengths costs at most 24 probes.
func (ts *tableState) lookup(vals []uint64) *entry {
	var kbuf [128]byte
	if ts.allExact {
		return ts.entries[string(appendMaskedKey(kbuf[:0], vals, allOnes(len(vals))))]
	}
	var best *entry
	bestPrefix := -1
	for _, g := range ts.ordered {
		if best != nil {
			if g.maxPriority < best.Priority ||
				g.maxPriority == best.Priority && g.totalPrefix <= bestPrefix {
				break
			}
		}
		key := appendMaskedKey(kbuf[:0], vals, g.masks)
		slot := g.byKey[string(key)]
		if len(slot) == 0 {
			continue
		}
		// Entries in one slot match identical packets; the head has the
		// highest priority among them.
		e := slot[0]
		if best == nil || e.Priority > best.Priority ||
			e.Priority == best.Priority && g.totalPrefix > bestPrefix {
			best = e
			bestPrefix = g.totalPrefix
		}
	}
	return best
}

func (ts *tableState) totalPrefix(e *entry) int {
	total := 0
	for i, k := range ts.table.Keys {
		if k.Match == MatchLPM {
			total += e.Matches[i].PrefixLen
		}
	}
	return total
}

// DigestMessage is one emitted digest record.
type DigestMessage struct {
	Digest string
	Fields []uint64
}

// PortOut is one packet emission produced by Process.
type PortOut struct {
	Port uint16
	Data []byte
}

// Result is the outcome of processing one packet.
type Result struct {
	Outputs []PortOut
	Digests []DigestMessage
	Dropped bool
}

// Runtime executes a validated program against installed table entries.
// It is safe for concurrent use: table writes take the write lock, packet
// processing the read lock.
type Runtime struct {
	prog *Program

	mu     sync.RWMutex
	tables map[string]*tableState
	mcast  map[uint16][]uint16 // multicast group → ports
	undo   []undo              // the running Apply's undo log, scratch kept across batches

	plan  *plan
	pktMu sync.Mutex
	pkts  []*pkt // idle packet states, reused by Run and Process
}

// NewRuntime validates the program and prepares an empty runtime.
func NewRuntime(prog *Program) (*Runtime, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		prog:   prog,
		tables: make(map[string]*tableState),
		mcast:  make(map[uint16][]uint16),
	}
	for _, t := range prog.Tables {
		rt.tables[t.Name] = newTableState(t)
	}
	rt.plan = lower(prog, rt.tables)
	return rt, nil
}

// Program returns the program the runtime executes.
func (rt *Runtime) Program() *Program { return rt.prog }

// UpdateKind is what one Update of a batch does.
type UpdateKind uint8

const (
	// Insert installs an entry whose matches no installed entry has.
	Insert UpdateKind = iota + 1
	// Modify replaces the installed entry with the same matches.
	Modify
	// Delete removes the installed entry with the same matches.
	Delete
	// SetGroup installs a multicast group's ports; none deletes it.
	SetGroup
)

// Update is one element of a batch Apply. A table update names its
// Table and, in Entry, the entry (a delete reads only its Matches); a
// SetGroup names its Group and Ports.
type Update struct {
	Kind  UpdateKind
	Table string
	Entry Entry
	Group uint16
	Ports []uint16
}

// undo inverts one applied update: an entry update by putting old back in
// new's place in ts (either may be nil: an insert, a delete); a group
// update (ts nil) by restoring the ports it replaced.
type undo struct {
	ts       *tableState
	old, new *entry
	group    uint16
	ports    []uint16
}

// Apply applies a batch of updates all or nothing, under one hold of the
// write lock: no packet sees the tables between two updates of the
// batch. The updates run in order; if one fails, those before it are
// undone, newest first, and its error is returned. The batch's entries
// are stored as given: the caller must not change their slices after.
func (rt *Runtime) Apply(updates []Update) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.applyLocked(updates)
}

// applyLocked is Apply with the write lock held.
func (rt *Runtime) applyLocked(updates []Update) error {
	var err error
	for i := range updates {
		if err = rt.apply(&updates[i]); err != nil {
			for j := len(rt.undo) - 1; j >= 0; j-- {
				u := &rt.undo[j]
				if u.ts == nil {
					rt.setGroup(u.group, u.ports)
				} else {
					u.ts.swap(u.new, u.old)
				}
			}
			break
		}
	}
	// Keep the log's array, but no entry or port list alive past the batch.
	clear(rt.undo)
	rt.undo = rt.undo[:0]
	return err
}

// apply applies one update and logs its undo. The write lock is held.
func (rt *Runtime) apply(u *Update) error {
	if u.Kind == SetGroup {
		rt.undo = append(rt.undo, undo{group: u.Group, ports: rt.mcast[u.Group]})
		rt.setGroup(u.Group, slices.Clone(u.Ports))
		return nil
	}
	ts := rt.tables[u.Table]
	if ts == nil {
		return fmt.Errorf("p4: unknown table %q", u.Table)
	}
	var kb keyBuf
	k := ts.appendKey(kb[:0], u.Entry.Matches)
	old := ts.entries[string(k)] // builds no key string
	var ne *entry
	switch u.Kind {
	case Insert, Modify:
		if u.Kind == Insert && old != nil {
			return fmt.Errorf("p4: table %q: entry already exists", u.Table)
		}
		if u.Kind == Modify && old == nil {
			return fmt.Errorf("p4: table %q: no entry to modify", u.Table)
		}
		act, err := rt.checkEntry(ts, &u.Entry, old != nil)
		if err != nil {
			return err
		}
		ne = &entry{Entry: u.Entry, act: act}
		if old != nil {
			ne.key = old.key
		} else {
			ne.key = string(k)
		}
	case Delete:
		if old == nil {
			return ts.errNoEntry
		}
	default:
		return fmt.Errorf("p4: unknown update kind %d", u.Kind)
	}
	ts.swap(old, ne)
	rt.undo = append(rt.undo, undo{ts: ts, old: old, new: ne})
	return nil
}

// swap puts ne in old's place, under the key they share. Either may be
// nil: nil old inserts ne, nil ne deletes old. The write lock is held.
func (ts *tableState) swap(old, ne *entry) {
	if old != nil {
		if ne == nil {
			delete(ts.entries, old.key)
		}
		if !ts.allExact {
			ts.groupDelete(old)
		}
	}
	if ne != nil {
		ts.entries[ne.key] = ne
		if !ts.allExact {
			ts.groupInsert(ne)
		}
	}
}

// setGroup installs ports as a group's list, deleting the group when
// there are none. The write lock is held.
func (rt *Runtime) setGroup(group uint16, ports []uint16) {
	if len(ports) == 0 {
		delete(rt.mcast, group)
	} else {
		rt.mcast[group] = ports
	}
}

// InsertEntry installs a table entry, replacing any entry with identical
// matches.
func (rt *Runtime) InsertEntry(table string, e Entry) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	kind := Insert
	if ts := rt.tables[table]; ts != nil && ts.find(e.Matches) != nil {
		kind = Modify
	}
	return rt.applyLocked([]Update{{Kind: kind, Table: table, Entry: e}})
}

// DeleteEntry removes the entry with identical matches.
func (rt *Runtime) DeleteEntry(table string, matches []FieldMatch) error {
	return rt.Apply([]Update{{Kind: Delete, Table: table, Entry: Entry{Matches: matches}}})
}

// Entries returns a deterministic snapshot of a table's entries.
func (rt *Runtime) Entries(table string) ([]Entry, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ts := rt.tables[table]
	if ts == nil {
		return nil, fmt.Errorf("p4: unknown table %q", table)
	}
	keys := make([]string, 0, len(ts.entries))
	for k := range ts.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		out = append(out, ts.entries[k].Entry)
	}
	return out, nil
}

// TableCounters are per-table hit/miss counts (the analogue of
// P4Runtime's direct counters).
type TableCounters struct {
	Hits   uint64
	Misses uint64
}

// Counters returns a table's hit/miss counters.
func (rt *Runtime) Counters(table string) (TableCounters, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ts := rt.tables[table]
	if ts == nil {
		return TableCounters{}, false
	}
	return TableCounters{Hits: ts.hits.Load(), Misses: ts.misses.Load()}, true
}

// GetEntry returns a copy of the entry with exactly the given matches.
func (rt *Runtime) GetEntry(table string, matches []FieldMatch) (Entry, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ts := rt.tables[table]
	if ts == nil {
		return Entry{}, false
	}
	e := ts.find(matches)
	if e == nil {
		return Entry{}, false
	}
	return e.Entry, true
}

// find returns the installed entry with exactly the given matches, or
// nil. It builds no key string.
func (ts *tableState) find(matches []FieldMatch) *entry {
	var kb keyBuf
	return ts.entries[string(ts.appendKey(kb[:0], matches))]
}

// EntryCount returns the number of installed entries in a table.
func (rt *Runtime) EntryCount(table string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if ts := rt.tables[table]; ts != nil {
		return len(ts.entries)
	}
	return 0
}

// SetMulticastGroup installs the port list for a multicast group.
func (rt *Runtime) SetMulticastGroup(group uint16, ports []uint16) {
	rt.Apply([]Update{{Kind: SetGroup, Group: group, Ports: ports}}) // cannot fail
}

// MulticastGroup returns the ports of a group.
func (rt *Runtime) MulticastGroup(group uint16) []uint16 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]uint16(nil), rt.mcast[group]...)
}

// checkEntry validates e against its table and returns its resolved
// action; replacing says an installed entry has e's matches.
func (rt *Runtime) checkEntry(ts *tableState, e *Entry, replacing bool) (*action, error) {
	t := ts.table
	if len(e.Matches) != len(t.Keys) {
		return nil, fmt.Errorf("p4: table %q takes %d keys, got %d", t.Name, len(t.Keys), len(e.Matches))
	}
	for i, k := range t.Keys {
		m := &e.Matches[i]
		if m.Value&^maskBits(k.Bits) != 0 {
			return nil, fmt.Errorf("p4: table %q key %s: value %#x overflows %d bits",
				t.Name, k.Name, m.Value, k.Bits)
		}
		if k.Match == MatchLPM && (m.PrefixLen < 0 || m.PrefixLen > k.Bits) {
			return nil, fmt.Errorf("p4: table %q key %s: prefix length %d out of range",
				t.Name, k.Name, m.PrefixLen)
		}
	}
	act := rt.plan.actions[e.Action]
	if act == nil {
		return nil, fmt.Errorf("p4: unknown action %q", e.Action)
	}
	allowed := false
	for _, a := range t.Actions {
		if a == e.Action {
			allowed = true
		}
	}
	if !allowed {
		return nil, fmt.Errorf("p4: table %q does not allow action %q", t.Name, e.Action)
	}
	if len(e.Params) != len(act.decl.Params) {
		return nil, fmt.Errorf("p4: action %q takes %d params, got %d", e.Action, len(act.decl.Params), len(e.Params))
	}
	for i, p := range act.decl.Params {
		if e.Params[i]&^maskBits(p.Bits) != 0 {
			return nil, fmt.Errorf("p4: action %q param %s: value %#x overflows %d bits",
				e.Action, p.Name, e.Params[i], p.Bits)
		}
	}
	if t.Size > 0 && len(ts.entries) >= t.Size && !replacing {
		return nil, fmt.Errorf("p4: table %q is full (%d entries)", t.Name, t.Size)
	}
	return act, nil
}

// Emitter receives what Run produced for one packet: first its digests,
// then its frames, in the order Process lists them. Run calls it after
// releasing the runtime's lock, so it may re-enter the runtime. fields
// and data are valid only for the duration of the call.
type Emitter interface {
	Digest(name string, fields []uint64)
	Frame(port uint16, data []byte)
}

// Run processes one packet received on ingressPort, hands its digests
// and frames to to, and reports Result.Dropped and the number of frames.
// Unlike Process it allocates nothing.
func (rt *Runtime) Run(ingressPort uint16, data []byte, to Emitter) (dropped bool, frames int) {
	p := rt.getPkt()
	defer rt.putPkt(p)
	rt.run(ingressPort, data, p)
	for _, d := range p.digests {
		to.Digest(d.d.name, p.dvals[d.off:d.off+len(d.d.args)])
	}
	for _, o := range p.outs {
		to.Frame(o.port, p.buf[o.start:o.end])
	}
	return p.dropped, len(p.outs)
}

// Process runs one packet received on ingressPort through the pipeline
// and returns copies of what it produced.
func (rt *Runtime) Process(ingressPort uint16, data []byte) (Result, error) {
	p := rt.getPkt()
	defer rt.putPkt(p)
	rt.run(ingressPort, data, p)
	res := Result{Dropped: p.dropped}
	if len(p.outs) > 0 {
		buf := append([]byte(nil), p.buf...)
		res.Outputs = make([]PortOut, len(p.outs))
		for i, o := range p.outs {
			res.Outputs[i] = PortOut{Port: o.port, Data: buf[o.start:o.end:o.end]}
		}
	}
	if len(p.digests) > 0 {
		vals := append(make([]uint64, 0, len(p.dvals)), p.dvals...)
		res.Digests = make([]DigestMessage, len(p.digests))
		for i, d := range p.digests {
			end := d.off + len(d.d.args)
			res.Digests[i] = DigestMessage{Digest: d.d.name, Fields: vals[d.off:end:end]}
		}
	}
	return res, nil
}

func (rt *Runtime) getPkt() *pkt {
	rt.pktMu.Lock()
	defer rt.pktMu.Unlock()
	n := len(rt.pkts)
	if n == 0 {
		return rt.plan.newPkt()
	}
	p := rt.pkts[n-1]
	rt.pkts = rt.pkts[:n-1]
	return p
}

func (rt *Runtime) putPkt(p *pkt) {
	p.payload = nil // keep no reference to the caller's frame
	rt.pktMu.Lock()
	rt.pkts = append(rt.pkts, p)
	rt.pktMu.Unlock()
}
