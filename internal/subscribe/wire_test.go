package subscribe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
)

// The message shapes as encoding/json rendered and decoded them before
// the fan-out appended its own bytes. They are the oracle the wire path
// is held to: byte-identical output, and decoders that accept exactly
// what json.Unmarshal into these accepts.
type updateMsg struct {
	Subs    []uint64 `json:"subs"`
	Txn     uint64   `json:"txn"`
	Changes []Change `json:"changes"`
}

type subscribeResult struct {
	Relation string   `json:"relation"`
	Txn      uint64   `json:"txn"`
	Rows     []Change `json:"rows"`
}

// renderDelta is the reflection-era rendering: a Z-set as []Change in
// Entries() order, each record a []any of bool, int64, uint64, string
// and nested []any.
func renderDelta(z *zset.ZSet, filter []fieldFilter) []Change {
	out := []Change{}
	for _, e := range z.Entries() {
		if match(e.Rec, filter) {
			out = append(out, Change{Row: renderFields(e.Rec), W: e.Weight})
		}
	}
	return out
}

func renderFields(fields []value.Value) []any {
	out := make([]any, len(fields))
	for i, v := range fields {
		switch v.Kind() {
		case value.KindBool:
			out[i] = v.Bool()
		case value.KindInt:
			out[i] = v.Int()
		case value.KindBit:
			out[i] = v.Bit()
		case value.KindString:
			out[i] = v.Str()
		case value.KindTuple:
			out[i] = renderFields(v.Tuple())
		}
	}
	return out
}

// fakeConn is a connection the service can register subscribers on
// without serving one: tests read its pending notices directly.
func fakeConn(svc *Service) *connState {
	return &connState{svc: svc, subs: make(map[uint64]*subscriber)}
}

// attach registers a subscriber with the given wire filter, as replied
// to, and returns it with its snapshot reply; no delivery goroutine
// drains its connection.
func attach(t *testing.T, svc *Service, cs *connState, rel string, filter map[string]any) (*subscriber, snapshotReply) {
	t.Helper()
	fs, err := parseFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	r := svc.subscribeLocked(cs, cs.lastID+1, rel, fs)
	svc.mu.Unlock()
	r.AfterReply()
	return r.sub, r
}

// takePending removes and returns a fake connection's pending notices.
func takePending(svc *Service, cs *connState) []notice {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	ns := append([]notice(nil), cs.pending[cs.head:]...)
	for _, n := range ns {
		for _, sub := range n.subs {
			sub.backlog--
		}
	}
	cs.pending, cs.head = cs.pending[:0], 0
	return ns
}

// ids lists the subscription ids a notice names.
func ids(n notice) []uint64 {
	out := make([]uint64, len(n.subs))
	for i, sub := range n.subs {
		out[i] = sub.id
	}
	return out
}

// wireEntries covers every value kind at its edges: int64 and bit
// extremes, strings json.Marshal escapes (HTML, U+2028/9, control
// characters, invalid UTF-8), nested and empty tuples, the empty record.
func wireEntries() []zset.Entry {
	return []zset.Entry{
		{Rec: value.Record{value.Int(math.MinInt64), value.String("<script>&amp;</script>")}, Weight: 1},
		{Rec: value.Record{value.Int(math.MaxInt64), value.String("a b c")}, Weight: -1},
		{Rec: value.Record{value.Int(0), value.String("nul\x00\x1f\"\\/\t")}, Weight: 1},
		{Rec: value.Record{value.Bit(math.MaxUint64), value.String("\xff\xfe\xe2\x80")}, Weight: 3},
		{Rec: value.Record{value.Bool(true), value.String("")}, Weight: 1},
		{Rec: value.Record{value.Bool(false), value.String("é😀")}, Weight: -2},
		{Rec: value.Record{value.Tuple(value.Int(-1), value.Tuple(), value.Tuple(value.String("in"), value.Bit(7))), value.Tuple()}, Weight: 1},
		{Rec: value.Record{value.String("1")}, Weight: 1},
		{Rec: value.Record{}, Weight: 1},
	}
}

// TestSubUpdateWireMatchesMarshal holds the appended "sub_update" params
// and "subscribe" reply to json.Marshal of the old shapes, for every
// filter class of a relation holding every value kind; a class none of
// the delta's rows pass is sent nothing.
func TestSubUpdateWireMatchesMarshal(t *testing.T) {
	const rel = "R<&> "
	filters := []map[string]any{
		nil,
		{"1": "<script>&amp;</script>"},
		{"0": true},
		{"0": float64(math.MinInt64)},
		{"0": float64(math.MaxUint64)},
		{"0": "1"},
		{"0": float64(0), "1": "nul\x00\x1f\"\\/\t"},
		{"5": 1.0},        // no row has a sixth column
		{"0": "absent"},   // no row has this value
		{"1": float64(1)}, // no number in column 1
	}
	delta := zset.FromEntries(wireEntries()...)
	for i, filter := range filters {
		t.Run(fmt.Sprint(filter), func(t *testing.T) {
			svc := New(Config{})
			defer svc.Close()
			cs := fakeConn(svc)
			fs, _ := parseFilter(filter)
			want := renderDelta(delta, fs)

			sub, reply := attach(t, svc, cs, rel, filter)
			empty, _ := json.Marshal(subscribeResult{Relation: rel, Rows: []Change{}})
			if got, _ := reply.AppendJSON(nil); !bytes.Equal(got, empty) {
				t.Fatalf("empty snapshot reply\n got %s\nwant %s", got, empty)
			}

			// Two more members of the class on the connection, so the
			// update names several ids.
			attach(t, svc, cs, rel, filter)
			attach(t, svc, cs, rel, filter)
			txn := uint64(100 + i)
			svc.Publish(txn, engine.Delta{rel: delta})
			ns := takePending(svc, cs)
			if len(want) == 0 {
				if len(ns) != 0 {
					t.Fatalf("class with no rows queued %d updates", len(ns))
				}
			} else {
				if len(ns) != 1 {
					t.Fatalf("one class on one connection queued %d notices, want 1", len(ns))
				}
				subs := ids(ns[0])
				if len(subs) != 3 || subs[0] != sub.id {
					t.Fatalf("update names %v, want the class's 3 members from %d", subs, sub.id)
				}
				got, _ := (&updateParams{subs: subs, txn: ns[0].txn, changes: ns[0].changes}).AppendJSON(nil)
				wantBytes, err := json.Marshal([]any{updateMsg{Subs: subs, Txn: txn, Changes: want}})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Fatalf("sub_update params\n got %s\nwant %s", got, wantBytes)
				}
				checkDecoders(t, got)
			}

			// A later subscriber's snapshot holds the same rows.
			_, reply = attach(t, svc, cs, rel, filter)
			got, _ := reply.AppendJSON(nil)
			wantBytes, _ := json.Marshal(subscribeResult{Relation: rel, Txn: txn, Rows: want})
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("subscribe reply\n got %s\nwant %s", got, wantBytes)
			}
			// And the client decodes both to what json.Unmarshal makes of them.
			checkDecoders(t, got)
		})
	}
}

// TestPublishRendersOncePerClass: Publish renders each filter class once
// (a number and a string filter on the same column are different
// classes) and queues one notice per class and connection, naming the
// class's members there in ascending id order. Its allocations do not
// grow with the number of subscribers, however they spread over
// connections.
func TestPublishRendersOncePerClass(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	csA, csB := fakeConn(svc), fakeConn(svc)
	filters := []map[string]any{nil, {"0": 1.0}, {"0": "1"}}
	members := map[*connState][][]uint64{}
	for _, cs := range []*connState{csA, csB} {
		members[cs] = make([][]uint64, len(filters))
		for range 2 {
			for i, f := range filters {
				sub, _ := attach(t, svc, cs, "R", f)
				members[cs][i] = append(members[cs][i], sub.id)
			}
		}
	}
	classes := svc.rels["R"].classes
	num, str := classes[classKey(mustFilter(t, filters[1]))], classes[classKey(mustFilter(t, filters[2]))]
	if num == str || num.key == str.key {
		t.Fatalf("number filter and string filter share class %q", num.key)
	}
	svc.Publish(1, d("R",
		zset.Entry{Rec: value.Record{value.Int(1)}, Weight: 1},
		zset.Entry{Rec: value.Record{value.String("1")}, Weight: 1},
		zset.Entry{Rec: value.Record{value.Int(2)}, Weight: 1}))
	want := map[string]string{num.key: `[{"row":[1],"w":1}]`, str.key: `[{"row":["1"],"w":1}]`}
	rendering := map[string]*byte{}
	for _, cs := range []*connState{csA, csB} {
		ns := takePending(svc, cs)
		if len(ns) != len(filters) {
			t.Fatalf("connection queued %d notices for %d classes", len(ns), len(filters))
		}
		for _, n := range ns {
			cl := n.subs[0].class
			i := slices.IndexFunc(filters, func(f map[string]any) bool { return classKey(mustFilter(t, f)) == cl.key })
			if got := ids(n); !slices.Equal(got, members[cs][i]) {
				t.Errorf("class %q notice names %v, want %v", cl.key, got, members[cs][i])
			}
			if w, ok := want[cl.key]; ok && string(n.changes) != w {
				t.Errorf("class %q got %s, want %s", cl.key, n.changes, w)
			}
			if p, ok := rendering[cl.key]; ok && p != &n.changes[0] {
				t.Errorf("class %q rendered once per connection, not once", cl.key)
			}
			rendering[cl.key] = &n.changes[0]
		}
	}
	if len(rendering) != len(filters) {
		t.Errorf("%d renderings for %d classes", len(rendering), len(filters))
	}

	// allocs measures one Publish to conns connections of perConn
	// subscribers each, all in one class.
	allocs := func(conns, perConn int) float64 {
		svc := New(Config{QueueLen: 1})
		defer svc.Close()
		css := make([]*connState, conns)
		for i := range css {
			css[i] = fakeConn(svc)
			for range perConn {
				attach(t, svc, css[i], "R", nil)
			}
		}
		delta := d("R", zset.Entry{Rec: row(1), Weight: 1}, zset.Entry{Rec: row(2), Weight: -1})
		return testing.AllocsPerRun(50, func() {
			svc.Publish(1, delta)
			// Drain in place: takePending would allocate per connection.
			svc.mu.Lock()
			defer svc.mu.Unlock()
			for _, cs := range css {
				ns := cs.pending[cs.head:]
				if len(ns) != 1 || len(ns[0].subs) != perConn {
					t.Fatalf("Publish queued %d notices to a connection of %d subscribers", len(ns), perConn)
				}
				for _, sub := range ns[0].subs {
					sub.backlog--
				}
				clear(cs.pending)
				cs.pending, cs.head = cs.pending[:0], 0
			}
		})
	}
	one := allocs(1, 1)
	for _, shape := range []struct{ conns, perConn int }{{1, 128}, {128, 1}, {16, 8}} {
		if many := allocs(shape.conns, shape.perConn); many > one {
			t.Errorf("Publish allocates %.0f times to %d connections of %d subscribers, %.0f to one subscriber",
				many, shape.conns, shape.perConn, one)
		}
	}
}

func mustFilter(t *testing.T, m map[string]any) []fieldFilter {
	t.Helper()
	fs, err := parseFilter(m)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// checkDecoders holds the client's two decoders to json.Unmarshal into
// the old shapes: the same texts accepted, deeply equal values.
func checkDecoders(t *testing.T, text []byte) {
	t.Helper()
	var msgs []updateMsg
	wantErr := json.Unmarshal(text, &msgs)
	if wantErr == nil && len(msgs) != 1 {
		wantErr = errors.New("not one message")
	}
	subs, u, err := parseUpdate(text)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseUpdate(%q): error %v, encoding/json: %v", text, err, wantErr)
	}
	if got := (updateMsg{Subs: subs, Txn: u.Txn, Changes: u.Changes}); err == nil && !reflect.DeepEqual(got, msgs[0]) {
		t.Fatalf("parseUpdate(%q) = %#v, encoding/json: %#v", text, got, msgs[0])
	}

	var want subscribeResult
	wantErr = json.Unmarshal(text, &want)
	var r subscribeReply
	err = r.ParseJSON(text)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("subscribe reply %q: error %v, encoding/json: %v", text, err, wantErr)
	}
	if got := (subscribeResult{Relation: r.relation, Txn: r.txn, Rows: r.rows}); err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("subscribe reply %q = %#v, encoding/json: %#v", text, got, want)
	}
}

// subSeeds are "sub_update" params and "subscribe" results captured from
// a running snvs fan-out, then the quirks json.Unmarshal has: folded and
// repeated keys, null, numbers out of their target's range, values of
// the wrong type, and malformed text.
var subSeeds = []string{
	`[{"subs":[2],"txn":2,"changes":[{"row":[4106,1],"w":1}]}]`,
	`[{"subs":[1,3,5],"txn":2,"changes":[{"row":[1,10],"w":1}]}]`,
	`[{"subs":[3],"txn":2,"changes":[{"row":[1],"w":1}]}]`,
	`[{"subs":[4,6],"txn":3,"changes":[{"row":[2,10],"w":1}]}]`,
	`{"relation":"InVlan","txn":0,"rows":[]}`,
	`{"relation":"VlanOk","txn":3,"rows":[{"row":[1,10],"w":1},{"row":[2,10],"w":1}]}`,
	`[{"SUBS":[1],"Txn":2,"CHANGES":[{"ROW":[true,"x",null,[1,[]],{"a":1,"a":[]}],"W":-3}]}]`,
	`[{"ſubs":[1],"txn":2}]`,
	`[{"subs":[1,2],"subs":[3],"changes":[{"row":[1,2],"w":1},{"row":[5]}],"changes":[{"row":[3]}]}]`,
	`[{"subs":[1,2,3],"subs":[null,7]}]`,
	`[{"subs":[1],"changes":[{"row":[1,2],"w":4}],"changes":[{"w":null},null]}]`,
	`[null]`, `null`, `[]`, `[{},{}]`, `[{"subs":[1],"changes":null}]`, `[{"subs":[1],"changes":[null,{"row":null}]}]`,
	`[{"subs":[1],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, `[{"subs":[1],"changes":[{"row":[-1e-400,1.5e300]}]}]`,
	`[{"subs":[-1]}]`, `[{"subs":[1.5]}]`, `[{"subs":[18446744073709551616]}]`, `[{"subs":["1"]}]`, `[{"txn":1e2}]`,
	`[{"subs":1}]`, `[{"subs":null}]`, `[{"subs":[]}]`, `[{"subs":{}}]`, `[{"subs":[[1]]}]`, `[{"sub":1,"txn":2,"changes":[]}]`,
	`[{"changes":[{"w":9223372036854775808}]}]`, `[{"changes":[{"w":-9223372036854775808}]}]`, `[{"changes":[{"w":1.0}]}]`,
	`[{"changes":{}}]`, `[{"changes":[{"row":{}}]}]`, `[{"changes":[[]]}]`, `[1]`, `{}`,
	`{"subs":[1],"relation":null,"rows":[{"row":[" <>&","\ud83d"],"w":1}],"Rows":[]}`,
	`{"relation":1}`, `{"rows":{}}`, `{"rows":[{"row":[1]}],"rows":[{"w":2},{"row":[]}]}`,
	`[{"subs":[1],"txn":2,"changes":[]}] x`, `[{"subs":[1],}]`, `[{"subs":[1,]}]`, `[{"subs":[1]]`, `[{"subs" [1]}]`, `{"subs":[1]`, ``, ` `,
}

func FuzzSubUpdate(f *testing.F) {
	for _, s := range subSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) { checkDecoders(t, text) })
}

// TestUndecodableUpdateEndsSubscription: a "sub_update" the client
// cannot decode leaves a gap in the stream of every subscription it
// names, so each of them ends as evicted and the server is told to drop
// it — also when a server that breaks the ordering contract sends it
// before the subscribe reply: the client registered the subscription
// under its id before asking. An update that names no subscription
// fails the connection.
func TestUndecodableUpdateEndsSubscription(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params string
		subs   int  // subscriptions opened, ids 1..subs
		early  bool // the server sends the update before the last subscribe reply
		noID   bool
	}{
		{"out of range", `[{"subs":[1],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, 1, false, false},
		{"before the reply", `[{"subs":[1],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, 1, true, false},
		{"malformed after the id", `[{"subs":[1],"txn":2,"changes":[{"row":[1],"w":"x"}]}]`, 1, false, false},
		{"every id it names", `[{"subs":[1,2],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, 2, false, false},
		{"every id it names, before a reply", `[{"subs":[1,2],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, 2, true, false},
		{"no id", `[{"subs":["one"],"txn":2,"changes":[]}]`, 1, false, true},
		{"no ids", `[{"subs":[],"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, 1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, server := net.Pipe()
			defer server.Close()
			server.SetDeadline(time.Now().Add(5 * time.Second))
			cl := NewClient(a)
			defer cl.Close()
			peer := json.NewDecoder(server)
			var req struct {
				ID     uint64
				Method string
				Params json.RawMessage
			}
			type result struct {
				sub *Subscription
				err error
			}
			update := []byte(`{"id":null,"method":"sub_update","params":` + tc.params + `}`)
			var subs []*Subscription
			for id := 1; id <= tc.subs; id++ {
				subscribed := make(chan result, 1)
				go func() {
					sub, err := cl.Subscribe("R", nil)
					subscribed <- result{sub, err}
				}()
				if err := peer.Decode(&req); err != nil || req.Method != "subscribe" || string(req.Params) != fmt.Sprintf(`[%d,"R"]`, id) {
					t.Fatalf("fake server read %+v, %v; want subscribe [%d,\"R\"]", req, err, id)
				}
				if tc.early && id == tc.subs {
					server.Write(update)
				}
				server.Write([]byte(fmt.Sprintf(`{"id":%d,"result":{"relation":"R","txn":0,"rows":[]},"error":null}`, req.ID)))
				r := <-subscribed
				if r.err != nil {
					t.Fatalf("Subscribe: %v", r.err)
				}
				subs = append(subs, r.sub)
			}
			if !tc.early {
				server.Write(update)
			}

			if tc.noID {
				select {
				case <-cl.Done():
				case <-time.After(5 * time.Second):
					t.Fatalf("connection still open after an update naming no subscription")
				}
				return
			}
			unsubscribed := map[string]bool{}
			for range subs {
				if err := peer.Decode(&req); err != nil || req.Method != "unsubscribe" {
					t.Fatalf("fake server read %+v, %v; want an unsubscribe", req, err)
				}
				unsubscribed[string(req.Params)] = true
				server.Write([]byte(fmt.Sprintf(`{"id":%d,"result":{},"error":null}`, req.ID)))
			}
			for _, sub := range subs {
				if !unsubscribed[fmt.Sprintf("[%d]", sub.ID)] {
					t.Errorf("server told to drop %v, not subscription %d", unsubscribed, sub.ID)
				}
				for range sub.Updates {
					t.Errorf("update delivered from an undecodable stream")
				}
				if evicted, reason := sub.Evicted(); !evicted || reason != reasonUndecodable {
					t.Fatalf("Evicted() = %v %q, want eviction with %q", evicted, reason, reasonUndecodable)
				}
			}
			select {
			case <-cl.Done():
				t.Fatalf("one undecodable update took the connection down: %v", cl.Conn().Err())
			default:
			}
		})
	}
}
