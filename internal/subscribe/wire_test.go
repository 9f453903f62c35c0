package subscribe

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
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
	Sub     uint64   `json:"sub"`
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
// without serving one: tests read the subscribers' queues directly.
func fakeConn(svc *Service) *connState {
	return &connState{svc: svc, subs: make(map[uint64]*subscriber)}
}

// attach registers a subscriber with the given wire filter and returns
// it with its snapshot reply; no delivery goroutine drains its queue.
func attach(t *testing.T, svc *Service, cs *connState, rel string, filter map[string]any) (*subscriber, snapshotReply) {
	t.Helper()
	fs, err := parseFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	r := svc.subscribeLocked(cs, cs.lastID+1, rel, fs)
	return r.sub, r
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

			txn := uint64(100 + i)
			svc.Publish(txn, engine.Delta{rel: delta})
			if len(want) == 0 {
				if n := len(sub.queue); n != 0 {
					t.Fatalf("class with no rows queued %d updates", n)
				}
			} else {
				u := <-sub.queue
				got, _ := (&updateParams{sub: sub.id, txn: u.txn, changes: u.changes}).AppendJSON(nil)
				wantBytes, err := json.Marshal([]any{updateMsg{Sub: sub.id, Txn: txn, Changes: want}})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Fatalf("sub_update params\n got %s\nwant %s", got, wantBytes)
				}
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

// TestPublishRendersOncePerClass: subscribers with the same filter are
// queued one rendering, different filters (a number and a string on the
// same column among them) get their own, and Publish's allocations do
// not grow with the number of subscribers in a class.
func TestPublishRendersOncePerClass(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cs := fakeConn(svc)
	all1, _ := attach(t, svc, cs, "R", nil)
	all2, _ := attach(t, svc, cs, "R", nil)
	num1, _ := attach(t, svc, cs, "R", map[string]any{"0": 1.0})
	num2, _ := attach(t, svc, cs, "R", map[string]any{"0": 1.0})
	str1, _ := attach(t, svc, cs, "R", map[string]any{"0": "1"})
	str2, _ := attach(t, svc, cs, "R", map[string]any{"0": "1"})
	if num1.class == str1.class || num1.class.key == str1.class.key {
		t.Fatalf("number filter and string filter share class %q", num1.class.key)
	}
	svc.Publish(1, d("R",
		zset.Entry{Rec: value.Record{value.Int(1)}, Weight: 1},
		zset.Entry{Rec: value.Record{value.String("1")}, Weight: 1},
		zset.Entry{Rec: value.Record{value.Int(2)}, Weight: 1}))
	body := func(sub *subscriber) []byte {
		t.Helper()
		select {
		case u := <-sub.queue:
			return u.changes
		default:
			t.Fatalf("subscriber %d was queued nothing", sub.id)
			return nil
		}
	}
	var bodies [][]byte
	for _, pair := range [][2]*subscriber{{all1, all2}, {num1, num2}, {str1, str2}} {
		a, b := body(pair[0]), body(pair[1])
		if &a[0] != &b[0] {
			t.Errorf("subscribers %d and %d of one class were queued separate renderings", pair[0].id, pair[1].id)
		}
		bodies = append(bodies, a)
	}
	if &bodies[0][0] == &bodies[1][0] || &bodies[1][0] == &bodies[2][0] || &bodies[0][0] == &bodies[2][0] {
		t.Errorf("different filter classes share one rendering")
	}
	if want := `[{"row":[1],"w":1}]`; string(bodies[1]) != want {
		t.Errorf("number class got %s, want %s", bodies[1], want)
	}
	if want := `[{"row":["1"],"w":1}]`; string(bodies[2]) != want {
		t.Errorf("string class got %s, want %s", bodies[2], want)
	}

	allocs := func(n int) float64 {
		svc := New(Config{QueueLen: 1})
		defer svc.Close()
		cs := fakeConn(svc)
		subs := make([]*subscriber, n)
		for i := range subs {
			subs[i], _ = attach(t, svc, cs, "R", nil)
		}
		delta := d("R", zset.Entry{Rec: row(1), Weight: 1}, zset.Entry{Rec: row(2), Weight: -1})
		return testing.AllocsPerRun(50, func() {
			svc.Publish(1, delta)
			for _, sub := range subs {
				<-sub.queue
			}
		})
	}
	if one, many := allocs(1), allocs(128); many > one+2 {
		t.Errorf("Publish allocates %.0f times with 128 subscribers, %.0f with 1", many, one)
	}
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
	id, u, err := parseUpdate(text)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseUpdate(%q): error %v, encoding/json: %v", text, err, wantErr)
	}
	if got := (updateMsg{Sub: id, Txn: u.Txn, Changes: u.Changes}); err == nil && !reflect.DeepEqual(got, msgs[0]) {
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
	`[{"sub":2,"txn":2,"changes":[{"row":[4106,1],"w":1}]}]`,
	`[{"sub":1,"txn":2,"changes":[{"row":[1,10],"w":1}]}]`,
	`[{"sub":3,"txn":2,"changes":[{"row":[1],"w":1}]}]`,
	`[{"sub":4,"txn":3,"changes":[{"row":[2,10],"w":1}]}]`,
	`{"relation":"InVlan","txn":0,"rows":[]}`,
	`{"relation":"VlanOk","txn":3,"rows":[{"row":[1,10],"w":1},{"row":[2,10],"w":1}]}`,
	`[{"SUB":1,"Txn":2,"CHANGES":[{"ROW":[true,"x",null,[1,[]],{"a":1,"a":[]}],"W":-3}]}]`,
	`[{"ſub":1,"txn":2}]`,
	`[{"sub":1,"sub":2,"changes":[{"row":[1,2],"w":1},{"row":[5]}],"changes":[{"row":[3]}]}]`,
	`[{"sub":1,"changes":[{"row":[1,2],"w":4}],"changes":[{"w":null},null]}]`,
	`[null]`, `null`, `[]`, `[{},{}]`, `[{"sub":1,"changes":null}]`, `[{"sub":1,"changes":[null,{"row":null}]}]`,
	`[{"sub":1,"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, `[{"sub":1,"changes":[{"row":[-1e-400,1.5e300]}]}]`,
	`[{"sub":-1}]`, `[{"sub":1.5}]`, `[{"sub":18446744073709551616}]`, `[{"sub":"1"}]`, `[{"txn":1e2}]`,
	`[{"changes":[{"w":9223372036854775808}]}]`, `[{"changes":[{"w":-9223372036854775808}]}]`, `[{"changes":[{"w":1.0}]}]`,
	`[{"changes":{}}]`, `[{"changes":[{"row":{}}]}]`, `[{"changes":[[]]}]`, `[1]`, `{}`,
	`{"sub":1,"relation":null,"rows":[{"row":[" <>&","\ud83d"],"w":1}],"Rows":[]}`,
	`{"relation":1}`, `{"rows":{}}`, `{"rows":[{"row":[1]}],"rows":[{"w":2},{"row":[]}]}`,
	`[{"sub":1,"txn":2,"changes":[]}] x`, `[{"sub":1,}]`, `[{"sub":1]`, `[{"sub" 1}]`, `{"sub":1`, ``, ` `,
}

func FuzzSubUpdate(f *testing.F) {
	for _, s := range subSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) { checkDecoders(t, text) })
}

// TestUndecodableUpdateEndsSubscription: a "sub_update" the client
// cannot decode leaves a gap in its stream, so the subscription it names
// ends as evicted and the server is told to drop it — also when a
// server that breaks the ordering contract sends it before the subscribe
// reply: the client registered the subscription under its id before
// asking. An update that names no subscription fails the connection.
func TestUndecodableUpdateEndsSubscription(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params string
		early  bool // the server sends the update before the subscribe reply
		noID   bool
	}{
		{"out of range", `[{"sub":1,"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, false, false},
		{"before the reply", `[{"sub":1,"txn":2,"changes":[{"row":[1e400],"w":1}]}]`, true, false},
		{"malformed after the id", `[{"sub":1,"txn":2,"changes":[{"row":[1],"w":"x"}]}]`, false, false},
		{"no id", `[{"sub":"one","txn":2,"changes":[]}]`, false, true},
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
			subscribed := make(chan result, 1)
			go func() {
				sub, err := cl.Subscribe("R", nil)
				subscribed <- result{sub, err}
			}()
			if err := peer.Decode(&req); err != nil || req.Method != "subscribe" || string(req.Params) != `[1,"R"]` {
				t.Fatalf("fake server read %+v, %v; want subscribe [1,\"R\"]", req, err)
			}
			update := []byte(`{"id":null,"method":"sub_update","params":` + tc.params + `}`)
			reply := []byte(fmt.Sprintf(`{"id":%d,"result":{"relation":"R","txn":0,"rows":[]},"error":null}`, req.ID))
			if tc.early {
				server.Write(update)
				server.Write(reply)
			} else {
				server.Write(reply)
			}
			r := <-subscribed
			if r.err != nil {
				t.Fatalf("Subscribe: %v", r.err)
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
			if err := peer.Decode(&req); err != nil || req.Method != "unsubscribe" || string(req.Params) != "[1]" {
				t.Fatalf("fake server read %+v, %v; want unsubscribe [1]", req, err)
			}
			server.Write([]byte(fmt.Sprintf(`{"id":%d,"result":{},"error":null}`, req.ID)))
			for range r.sub.Updates {
				t.Errorf("update delivered from an undecodable stream")
			}
			if evicted, reason := r.sub.Evicted(); !evicted || reason != reasonUndecodable {
				t.Fatalf("Evicted() = %v %q, want eviction with %q", evicted, reason, reasonUndecodable)
			}
			select {
			case <-cl.Done():
				t.Fatalf("one undecodable update took the connection down: %v", cl.Conn().Err())
			default:
			}
		})
	}
}
