package subscribe

import (
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
	"repro/internal/obs"
)

// d builds a single-relation delta.
func d(rel string, entries ...zset.Entry) engine.Delta {
	return engine.Delta{rel: zset.FromEntries(entries...)}
}

func row(i int64) value.Record { return value.Record{value.Int(i)} }

// pair wires a client to a service over an in-memory pipe.
func pair(t *testing.T, svc *Service) *Client {
	t.Helper()
	a, b := net.Pipe()
	svc.ServeConn(b)
	cl := NewClient(a)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// recv waits for one update with a deadline.
func recv(t *testing.T, sub *Subscription) Update {
	t.Helper()
	select {
	case u, ok := <-sub.Updates:
		if !ok {
			t.Fatalf("Updates closed while waiting for an update")
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatalf("no update within deadline")
	}
	panic("unreachable")
}

// applyChanges folds weighted rows into a row-key → weight map.
func applyChanges(state map[string]int64, changes []Change) {
	for _, ch := range changes {
		key, _ := json.Marshal(ch.Row)
		state[string(key)] += ch.W
		if state[string(key)] == 0 {
			delete(state, string(key))
		}
	}
}

func TestSnapshotThenDelta(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	svc.Publish(1, d("R",
		zset.Entry{Rec: row(1), Weight: 1},
		zset.Entry{Rec: row(2), Weight: 1}))

	cl := pair(t, svc)
	sub, err := cl.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if sub.Txn != 1 || len(sub.Rows) != 2 {
		t.Fatalf("snapshot txn=%d rows=%d, want txn=1 rows=2", sub.Txn, len(sub.Rows))
	}
	state := map[string]int64{}
	applyChanges(state, sub.Rows)

	svc.Publish(2, d("R",
		zset.Entry{Rec: row(1), Weight: -1},
		zset.Entry{Rec: row(3), Weight: 1}))
	u := recv(t, sub)
	if u.Txn != 2 {
		t.Errorf("update txn = %d, want 2", u.Txn)
	}
	if len(u.Changes) != 2 {
		t.Fatalf("update carries %d changes, want 2", len(u.Changes))
	}
	applyChanges(state, u.Changes)
	if len(state) != 2 || state[`[2]`] != 1 || state[`[3]`] != 1 {
		t.Errorf("converged state = %v, want rows [2] and [3]", state)
	}
}

func TestFilteredSubscription(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	mk := func(port, vlan int64) zset.Entry {
		return zset.Entry{Rec: value.Record{value.Int(port), value.Int(vlan)}, Weight: 1}
	}
	svc.Publish(1, d("InVlan", mk(1, 10), mk(2, 10), mk(3, 20)))

	cl := pair(t, svc)
	sub, err := cl.Subscribe("InVlan", map[int]any{1: 10})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if len(sub.Rows) != 2 {
		t.Fatalf("filtered snapshot has %d rows, want 2 (vlan 10 only)", len(sub.Rows))
	}
	// A delta touching only vlan 20 must not reach this subscriber;
	// the next vlan-10 change must.
	svc.Publish(2, d("InVlan", mk(4, 20)))
	svc.Publish(3, d("InVlan", mk(5, 10)))
	u := recv(t, sub)
	if u.Txn != 3 || len(u.Changes) != 1 {
		t.Fatalf("filtered update txn=%d changes=%d, want txn=3 with 1 change", u.Txn, len(u.Changes))
	}
}

func TestUnsubscribe(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cl := pair(t, svc)
	sub, err := cl.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	select {
	case _, ok := <-sub.Updates:
		if ok {
			t.Fatalf("update delivered after unsubscribe")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Updates not closed after unsubscribe")
	}
	if evicted, _ := sub.Evicted(); evicted {
		t.Errorf("clean unsubscribe reported as eviction")
	}
	if n := svc.Subscribers(); n != 0 {
		t.Errorf("Subscribers() = %d after unsubscribe, want 0", n)
	}
}

func TestCatalogRejectsUnknownRelation(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	svc.SetCatalog([]string{"Flood", "Dmac"})
	cl := pair(t, svc)
	if _, err := cl.Subscribe("NoSuchRel", nil); err == nil {
		t.Fatalf("subscribe to uncataloged relation succeeded")
	}
	rels, err := cl.Relations()
	if err != nil {
		t.Fatalf("Relations: %v", err)
	}
	if len(rels) != 2 || rels[0] != "Dmac" || rels[1] != "Flood" {
		t.Errorf("Relations() = %v, want [Dmac Flood]", rels)
	}
}

// throttle wraps a stream so its reads can be stalled and resumed —
// the in-memory stand-in for a consumer that stops draining TCP.
type throttle struct {
	rwc  io.ReadWriteCloser
	dead chan struct{}
	once sync.Once

	mu   sync.Mutex
	gate chan struct{}
}

func newThrottle(rwc io.ReadWriteCloser) *throttle {
	return &throttle{rwc: rwc, dead: make(chan struct{})}
}

func (t *throttle) stall() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gate == nil {
		t.gate = make(chan struct{})
	}
}

func (t *throttle) resume() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gate != nil {
		close(t.gate)
		t.gate = nil
	}
}

func (t *throttle) Read(p []byte) (int, error) {
	t.mu.Lock()
	gate := t.gate
	t.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-t.dead:
			return 0, io.ErrClosedPipe
		}
	}
	return t.rwc.Read(p)
}

func (t *throttle) Write(p []byte) (int, error) { return t.rwc.Write(p) }

func (t *throttle) Close() error {
	t.once.Do(func() { close(t.dead) })
	return t.rwc.Close()
}

// TestSlowConsumerEviction is the e2e for the eviction contract: a
// subscriber that stops reading is evicted while a healthy subscriber
// on another connection keeps converging; after the stall clears, the
// evicted client sees the sub_evicted notice and resubscribes into a
// fresh, complete snapshot.
func TestSlowConsumerEviction(t *testing.T) {
	svc := New(Config{QueueLen: 4, WriteLimit: 1024})
	defer svc.Close()

	healthy := pair(t, svc)
	hsub, err := healthy.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("healthy Subscribe: %v", err)
	}

	a, b := net.Pipe()
	th := newThrottle(a)
	svc.ServeConn(b)
	slow := NewClient(th)
	defer slow.Close()
	ssub, err := slow.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("slow Subscribe: %v", err)
	}
	th.stall()

	// Publish at the healthy subscriber's consumption pace (recv acks
	// each txn). The stalled connection's delivery parks once its write
	// queue congests, so its 4 pending updates fill and evict it regardless.
	const K = 100
	state := map[string]int64{}
	applyChanges(state, hsub.Rows)
	lastTxn := uint64(0)
	for i := 1; i <= K; i++ {
		svc.Publish(uint64(i), d("R", zset.Entry{Rec: row(int64(i)), Weight: 1}))
		u := recv(t, hsub)
		if u.Txn <= lastTxn {
			t.Fatalf("updates out of order: txn %d after %d", u.Txn, lastTxn)
		}
		lastTxn = u.Txn
		applyChanges(state, u.Changes)
	}
	if len(state) != K {
		t.Fatalf("healthy subscriber converged on %d rows, want %d", len(state), K)
	}

	// The stalled subscriber is evicted (its queue filled) without
	// taking its connection — or the healthy stream — down.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled subscriber never evicted: %d active", svc.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}

	// Stall lifted: the client drains what was in flight, then sees
	// the eviction close its stream.
	th.resume()
	for range ssub.Updates {
	}
	if evicted, reason := ssub.Evicted(); !evicted || reason == "" {
		t.Fatalf("Evicted() = %v %q, want eviction with reason", evicted, reason)
	}
	select {
	case <-slow.Done():
		t.Fatalf("eviction killed the connection: %v", slow.Conn().Err())
	default:
	}

	// Resubscribe-with-fresh-snapshot: the new subscription starts
	// from the complete current state.
	re, err := slow.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("resubscribe after eviction: %v", err)
	}
	if len(re.Rows) != K || re.Txn != K {
		t.Fatalf("fresh snapshot rows=%d txn=%d, want rows=%d txn=%d",
			len(re.Rows), re.Txn, K, K)
	}
}

func TestDebugEndpointAndMetrics(t *testing.T) {
	o := obs.NewObserver()
	svc := New(Config{Obs: o})
	defer svc.Close()
	svc.Publish(7, d("R", zset.Entry{Rec: row(1), Weight: 1}))
	cl := pair(t, svc)
	if _, err := cl.Subscribe("R", nil); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	ts := httptest.NewServer(o.Handler())
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/debug/subscribers")
	if err != nil {
		t.Fatalf("GET /debug/subscribers: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/debug/subscribers status = %d", res.StatusCode)
	}
	var out struct {
		Txn         uint64 `json:"txn"`
		Connections int    `json:"connections"`
		Subscribers []struct {
			Relation string `json:"relation"`
		} `json:"subscribers"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Txn != 7 || out.Connections != 1 || len(out.Subscribers) != 1 {
		t.Fatalf("debug view = %+v, want txn=7, 1 conn, 1 subscriber", out)
	}
	if snap := o.Reg().Snapshot(); snap["sub_subscribers"] != 1 {
		t.Errorf("sub_subscribers = %v, want 1", snap["sub_subscribers"])
	}
}

// TestSubscribeKeepsNoAliasIntoReadBuffer: the relation and filter a
// subscription was made with must not change when the next, larger
// request overwrites the connection's read buffer.
func TestSubscribeKeepsNoAliasIntoReadBuffer(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	a, b := net.Pipe()
	defer a.Close()
	svc.ServeConn(b)
	peer := json.NewDecoder(a)
	send := func(id int, method string, params ...any) {
		t.Helper()
		req, _ := json.Marshal(map[string]any{"method": method, "params": params, "id": id})
		a.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := a.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() (m struct {
		Method string
		Params []updateMsg
		Error  any
	}) {
		t.Helper()
		if err := peer.Decode(&m); err != nil || m.Error != nil {
			t.Fatalf("recv: %+v, %v", m, err)
		}
		return m
	}
	send(1, "subscribe", 1, "FirstRelation", map[string]any{"filter": map[string]any{"1": "first-filter-value"}})
	recv()
	send(2, "echo", strings.Repeat("S", 2000)) // overwrites the subscribe request
	recv()
	mk := func(port int64, tag string) zset.Entry {
		return zset.Entry{Rec: value.Record{value.Int(port), value.String(tag)}, Weight: 1}
	}
	svc.Publish(1, d("FirstRelation", mk(1, "first-filter-value"), mk(2, "other")))
	if m := recv(); m.Method != "sub_update" || len(m.Params) != 1 || len(m.Params[0].Changes) != 1 {
		t.Fatalf("update after the buffer was overwritten = %+v, want the one row matching the filter", m)
	}
}

// TestUnsubscribeUnderLoadLeavesNothingPending: updates still in flight
// for a subscription the client has already dropped are discarded. No
// subscription stays registered, and a later subscription on the same
// relation receives only its own updates.
func TestUnsubscribeUnderLoadLeavesNothingPending(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cl := pair(t, svc)

	txn := uint64(0)
	for i := 0; i < 100; i++ {
		sub, err := cl.Subscribe("R", nil)
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		// A burst well inside the subscriber's queue: one update read
		// proves the stream is live, the rest are still on their way
		// when the client lets go of the subscription.
		for n := 0; n < 64; n++ {
			txn++
			w := int64(1 - 2*(n%2)) // insert, delete, insert, ...: R stays small
			svc.Publish(txn, d("R", zset.Entry{Rec: row(1), Weight: w}))
		}
		recv(t, sub)
		if err := sub.Unsubscribe(); err != nil {
			t.Fatalf("Unsubscribe %d: %v", i, err)
		}
	}
	// Drain: a round trip behind every notification already on the wire.
	if _, err := cl.Relations(); err != nil {
		t.Fatalf("Relations: %v", err)
	}
	cl.mu.Lock()
	left := len(cl.subs)
	cl.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d subscriptions still registered after every one unsubscribed", left)
	}

	sub, err := cl.Subscribe("R", nil)
	if err != nil {
		t.Fatalf("Subscribe after the burst: %v", err)
	}
	if sub.Txn != txn {
		t.Fatalf("snapshot txn = %d, want %d", sub.Txn, txn)
	}
	svc.Publish(txn+1, d("R", zset.Entry{Rec: row(2), Weight: 1}))
	if u := recv(t, sub); u.Txn != txn+1 || len(u.Changes) != 1 || u.Changes[0].W != 1 {
		t.Fatalf("first update = %+v, want txn %d inserting [2]", u, txn+1)
	}
	if _, err := cl.Relations(); err != nil {
		t.Fatalf("Relations: %v", err)
	}
	select {
	case u := <-sub.Updates:
		t.Fatalf("new subscription received %+v, published for no one it names", u)
	default:
	}
}

// TestUpdatesFollowTheirSubscribeReply: on a raw connection, with
// Publish running concurrently, no notification for a subscription id
// reaches the peer before the reply to the subscribe that named it.
func TestUpdatesFollowTheirSubscribeReply(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	a, b := net.Pipe()
	defer a.Close()
	svc.ServeConn(b)
	a.SetDeadline(time.Now().Add(20 * time.Second))

	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for txn := uint64(1); ; txn++ {
			select {
			case <-stop:
				return
			default:
			}
			w := int64(1 - 2*(txn%2)) // R holds row 1 or nothing
			svc.Publish(txn, d("R", zset.Entry{Rec: row(1), Weight: -w}))
			runtime.Gosched()
		}
	}()
	defer func() { close(stop); <-published }()

	const n = 200
	go func() {
		for id := 1; id <= n; id++ {
			params := []any{id, "R"}
			if id%2 == 0 {
				params = append(params, map[string]any{"filter": map[string]any{"0": 1}})
			}
			req, _ := json.Marshal(map[string]any{"id": id, "method": "subscribe", "params": params})
			if _, err := a.Write(req); err != nil {
				return
			}
		}
	}()
	peer := json.NewDecoder(a)
	replied := make(map[uint64]bool)
	notes := 0
	for len(replied) < n || notes == 0 {
		var m struct {
			ID     *uint64
			Method string
			Params []struct {
				Sub  uint64   // sub_evicted
				Subs []uint64 // sub_update
			}
			Error any
		}
		if err := peer.Decode(&m); err != nil {
			t.Fatalf("after %d replies and %d notifications: %v", len(replied), notes, err)
		}
		switch {
		case m.ID != nil:
			if m.Error != nil {
				t.Fatalf("subscribe %d failed: %v", *m.ID, m.Error)
			}
			replied[*m.ID] = true
		case len(m.Params) == 1:
			for _, id := range append(m.Params[0].Subs, m.Params[0].Sub) {
				if id != 0 && !replied[id] {
					t.Fatalf("%s for subscription %d read before its subscribe reply", m.Method, id)
				}
			}
			notes++
		default:
			t.Fatalf("unexpected message %+v", m)
		}
	}
}

// TestSubscribeRefusesStaleID: a subscription id must exceed every id
// the connection subscribed under before, so none is used twice.
func TestSubscribeRefusesStaleID(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	a, b := net.Pipe()
	defer a.Close()
	svc.ServeConn(b)
	a.SetDeadline(time.Now().Add(5 * time.Second))
	peer := json.NewDecoder(a)
	for i, tc := range []struct {
		id any
		ok bool
	}{{0, false}, {2, true}, {2, false}, {1, false}, {-1, false}, {"3", false}, {3, true}} {
		req, _ := json.Marshal(map[string]any{"id": i, "method": "subscribe", "params": []any{tc.id, "R"}})
		if _, err := a.Write(req); err != nil {
			t.Fatal(err)
		}
		var m struct{ Error any }
		if err := peer.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if (m.Error == nil) != tc.ok {
			t.Errorf("subscribe under id %v: error %v, want accepted=%v", tc.id, m.Error, tc.ok)
		}
	}
	if n := svc.Subscribers(); n != 2 {
		t.Errorf("Subscribers() = %d, want 2", n)
	}
}

// TestConcurrentSubscribes: subscriptions opened at once from many
// goroutines on one Client all succeed, under distinct ids, and each
// receives the next update.
func TestConcurrentSubscribes(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cl := pair(t, svc)
	const n = 32
	subs := make([]*Subscription, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs[i], errs[i] = cl.Subscribe("R", nil)
		}()
	}
	wg.Wait()
	ids := make(map[uint64]bool)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		ids[subs[i].ID] = true
	}
	if len(ids) != n {
		t.Fatalf("%d distinct ids over %d subscriptions", len(ids), n)
	}
	svc.Publish(1, d("R", zset.Entry{Rec: row(1), Weight: 1}))
	for _, sub := range subs {
		if u := recv(t, sub); u.Txn != 1 || len(u.Changes) != 1 {
			t.Fatalf("subscription %d got %+v, want txn 1 inserting [1]", sub.ID, u)
		}
	}
}

// TestCursorSkipsUntaggedDeltas: a delta published without a transaction
// (txn 0, every digest-originated delta) must not reset the cursor that
// snapshots and eviction events report.
func TestCursorSkipsUntaggedDeltas(t *testing.T) {
	for _, tc := range []struct {
		name string
		txns []uint64
		want uint64
	}{
		{"tagged only", []uint64{3, 4}, 4},
		{"untagged after tagged", []uint64{7, 0}, 7},
		{"untagged between tagged", []uint64{7, 0, 9, 0, 0}, 9},
		{"untagged only", []uint64{0, 0}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{})
			defer svc.Close()
			for i, txn := range tc.txns {
				svc.Publish(txn, d("R", zset.Entry{Rec: row(int64(i)), Weight: 1}))
			}
			if got := svc.LastTxn(); got != tc.want {
				t.Errorf("LastTxn() = %d, want %d", got, tc.want)
			}
			sub, err := pair(t, svc).Subscribe("R", nil)
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			if sub.Txn != tc.want || len(sub.Rows) != len(tc.txns) {
				t.Errorf("snapshot txn=%d rows=%d, want txn=%d rows=%d",
					sub.Txn, len(sub.Rows), tc.want, len(tc.txns))
			}
		})
	}
}

func TestParseFilterKeys(t *testing.T) {
	for _, tc := range []struct {
		key string
		idx int // -1: rejected
	}{
		{"0", 0},
		{"12", 12},
		{"1x", -1},
		{"x1", -1},
		{"1 ", -1},
		{"-1", -1},
		{"", -1},
	} {
		fs, err := parseFilter(map[string]any{tc.key: "v"})
		switch {
		case tc.idx < 0 && err == nil:
			t.Errorf("parseFilter key %q accepted as column %d", tc.key, fs[0].idx)
		case tc.idx >= 0 && (err != nil || fs[0].idx != tc.idx):
			t.Errorf("parseFilter key %q = %v, %v; want column %d", tc.key, fs, err, tc.idx)
		}
	}
}

// TestEvictionWithholdsPendingUpdates: on TestSlowConsumerEviction's
// stalled connection, read raw, every update published to the evicted
// subscription is either read under its id or counted in the eviction
// notice's "pending" — never both.
func TestEvictionWithholdsPendingUpdates(t *testing.T) {
	svc := New(Config{QueueLen: 4, WriteLimit: 1024})
	defer svc.Close()
	a, b := net.Pipe()
	th := newThrottle(a)
	defer th.Close()
	svc.ServeConn(b)
	a.SetDeadline(time.Now().Add(20 * time.Second))
	peer := json.NewDecoder(th)
	req, _ := json.Marshal(map[string]any{"id": 1, "method": "subscribe", "params": []any{1, "R"}})
	if _, err := th.Write(req); err != nil {
		t.Fatal(err)
	}
	var reply struct{ Error any }
	if err := peer.Decode(&reply); err != nil || reply.Error != nil {
		t.Fatalf("subscribe reply: %+v, %v", reply, err)
	}
	th.stall()

	// Publish until the stalled subscription is evicted: every txn up to
	// and including the one that found its count full was published to it.
	published := 0
	for svc.Subscribers() == 1 {
		if published == 10000 {
			t.Fatalf("stalled subscription not evicted after %d updates", published)
		}
		published++
		svc.Publish(uint64(published), d("R", zset.Entry{Rec: row(int64(published)), Weight: 1}))
	}

	th.resume()
	read := 0
	for {
		var m struct {
			Method string
			Params []struct {
				Subs    []uint64
				Sub     uint64
				Pending int
			}
		}
		if err := peer.Decode(&m); err != nil {
			t.Fatalf("after %d updates: %v", read, err)
		}
		switch m.Method {
		case "sub_update":
			if len(m.Params) != 1 || len(m.Params[0].Subs) != 1 || m.Params[0].Subs[0] != 1 {
				t.Fatalf("update %+v, want one naming subscription 1", m.Params)
			}
			read++
		case "sub_evicted":
			if pending := m.Params[0].Pending; read+pending != published {
				t.Fatalf("read %d updates and the notice counts %d pending, but %d were published to the subscription",
					read, pending, published)
			}
			return
		default:
			t.Fatalf("unexpected message %+v", m)
		}
	}
}

// TestOneDeliveryGoroutinePerConnection: a connection's subscriptions
// share its one delivery goroutine, so opening more of them and
// streaming to them starts none.
func TestOneDeliveryGoroutinePerConnection(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	cl := pair(t, svc)
	first, err := cl.Subscribe("R", nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Publish(1, d("R", zset.Entry{Rec: row(1), Weight: 1}))
	recv(t, first)
	base := runtime.NumGoroutine()

	const n = 64
	subs := []*Subscription{first}
	for i := 1; i < n; i++ {
		filter := map[int]any(nil)
		if i%2 == 1 {
			filter = map[int]any{0: i % 4} // row 1 passes one filter in four
		}
		sub, err := cl.Subscribe("R", filter)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	svc.Publish(2, d("R", zset.Entry{Rec: row(1), Weight: -1}))
	for i, sub := range subs {
		if i%2 == 0 || i%4 == 1 {
			if u := recv(t, sub); u.Txn != 2 {
				t.Fatalf("subscription %d got txn %d, want 2", sub.ID, u.Txn)
			}
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines with %d subscriptions on the connection, %d with one", got, n, base)
	}
}

// TestSnapshotSortedOncePerPublish: subscribes with no publish between
// them cut their rows from one sorted snapshot of the relation, and a
// subscribe after a publish sees that publish.
func TestSnapshotSortedOncePerPublish(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	svc.Publish(1, d("R",
		zset.Entry{Rec: row(2), Weight: 1},
		zset.Entry{Rec: row(1), Weight: 1}))
	sorted := func() []zset.Entry {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.rels["R"].sorted
	}
	cl := pair(t, svc)
	subscribe := func(want int) {
		t.Helper()
		sub, err := cl.Subscribe("R", nil)
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		if len(sub.Rows) != want {
			t.Fatalf("snapshot has %d rows, want %d", len(sub.Rows), want)
		}
	}
	subscribe(2)
	first := sorted()
	subscribe(2)
	if again := sorted(); len(again) != 2 || &again[0] != &first[0] {
		t.Fatalf("the second subscribe sorted the relation again")
	}
	svc.Publish(2, d("R", zset.Entry{Rec: row(3), Weight: 1}))
	subscribe(3)
	if after := sorted(); len(after) != 3 || after[2].Rec.Compare(row(3)) != 0 {
		t.Fatalf("snapshot after the publish = %v, want rows 1, 2, 3", after)
	}
}
