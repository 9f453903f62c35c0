package subscribe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/dl/value"
	"repro/internal/dl/zset"
	"repro/internal/jsonrpc"
)

// wireTap watches one client's stream: it learns which subscription id
// each outgoing subscribe request names, and checks that no incoming
// notification names a subscription whose subscribe reply it has not
// read yet. Once the server has read a subscribe request, it calls
// onSubscribe.
type wireTap struct {
	io.ReadWriteCloser
	in          *io.PipeWriter
	onSubscribe func()

	mu      sync.Mutex
	reqSub  map[uint64]uint64 // subscribe request id → subscription id
	replied map[uint64]bool
	errs    []string
	read    sync.WaitGroup
}

func newWireTap(rwc io.ReadWriteCloser, onSubscribe func()) *wireTap {
	pr, pw := io.Pipe()
	w := &wireTap{ReadWriteCloser: rwc, in: pw, onSubscribe: onSubscribe,
		reqSub: map[uint64]uint64{}, replied: map[uint64]bool{}}
	w.read.Add(1)
	go func() {
		defer w.read.Done()
		defer pr.Close()
		dec := json.NewDecoder(pr)
		for {
			var m struct {
				ID     *uint64
				Method string
				Params []struct {
					Sub  uint64
					Subs []uint64
				}
			}
			if dec.Decode(&m) != nil {
				return
			}
			w.mu.Lock()
			if m.ID != nil {
				if sub, ok := w.reqSub[*m.ID]; ok {
					w.replied[sub] = true
				}
			} else if len(m.Params) == 1 {
				for _, id := range append(m.Params[0].Subs, m.Params[0].Sub) {
					if id != 0 && !w.replied[id] {
						w.errs = append(w.errs, fmt.Sprintf("%s for subscription %d read before its subscribe reply", m.Method, id))
					}
				}
			}
			w.mu.Unlock()
		}
	}()
	return w
}

// Write notes the subscribe requests in p, which the JSON-RPC writer
// hands over as whole messages, before they reach the server.
func (w *wireTap) Write(p []byte) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(p))
	subscribes := false
	for {
		var m struct {
			ID     uint64
			Method string
			Params []json.RawMessage
		}
		if dec.Decode(&m) != nil {
			break
		}
		if m.Method == "subscribe" && len(m.Params) > 0 {
			var sub uint64
			json.Unmarshal(m.Params[0], &sub)
			w.mu.Lock()
			w.reqSub[m.ID] = sub
			w.mu.Unlock()
			subscribes = true
		}
	}
	n, err := w.ReadWriteCloser.Write(p)
	if subscribes {
		w.onSubscribe()
	}
	return n, err
}

func (w *wireTap) Read(p []byte) (int, error) {
	n, err := w.ReadWriteCloser.Read(p)
	if n > 0 {
		w.in.Write(p[:n]) // fails only once the decoder has stopped
	}
	return n, err
}

func (w *wireTap) Close() error {
	err := w.ReadWriteCloser.Close()
	w.in.Close()
	return err
}

// sentinelBit marks the last transaction in the publisher's record.
const sentinelBit = 1 << 7

// orderFilters are the filter classes the test subscribes with: every
// row, each colour, and one key.
var orderFilters = []map[int]any{nil, {1: "red"}, {1: "blue"}, {0: 3}}

func orderRow(k int64, colour string) value.Record {
	return value.Record{value.Int(k), value.String(colour)}
}

// orderSub is one subscription the test opened and what its consumer
// made of its stream.
type orderSub struct {
	sub    *Subscription
	filter int // index into orderFilters
	conn   int
	// keep is how many updates the consumer takes before it unsubscribes
	// (0: it keeps the subscription to the end).
	keep int
	done chan struct{}

	unsubscribed bool
	state        map[string]int64
	lastTxn      uint64
	errs         []string
}

// consume checks the stream against the publisher's record of which
// transactions touched the subscription's filter class — each update is
// the next of them after the snapshot cursor, none skipped, none twice —
// and folds it into the snapshot, until the sentinel transaction
// arrives, the stream ends, or the consumer has taken its keep.
func (o *orderSub) consume(touched []uint8) {
	defer close(o.done)
	o.state = map[string]int64{}
	fold(o.state, o.sub.Rows)
	o.lastTxn = o.sub.Txn
	if touched[o.lastTxn]&sentinelBit != 0 {
		return // subscribed after the last publish
	}
	bit := uint8(1) << o.filter
	taken := 0
	for u := range o.sub.Updates {
		if u.Txn <= o.lastTxn || u.Txn >= uint64(len(touched)) || touched[u.Txn]&bit == 0 {
			o.errs = append(o.errs, fmt.Sprintf("txn %d after txn %d (snapshot cursor %d): not a change to the class after the last", u.Txn, o.lastTxn, o.sub.Txn))
			return
		}
		for txn := o.lastTxn + 1; txn < u.Txn; txn++ {
			if touched[txn]&bit != 0 {
				o.errs = append(o.errs, fmt.Sprintf("txn %d skipped: txn %d after txn %d (snapshot cursor %d)", txn, u.Txn, o.lastTxn, o.sub.Txn))
				break
			}
		}
		o.lastTxn = u.Txn
		fold(o.state, u.Changes)
		if touched[u.Txn]&sentinelBit != 0 {
			return
		}
		if taken++; taken == o.keep {
			o.unsubscribed = true
			if err := o.sub.Unsubscribe(); err != nil {
				o.errs = append(o.errs, fmt.Sprintf("Unsubscribe: %v", err))
			}
			return
		}
	}
}

// fold adds weighted (key, colour) rows into a state keyed "key/colour".
func fold(state map[string]int64, changes []Change) {
	for _, c := range changes {
		k, _ := c.Row[0].(float64)
		colour, _ := c.Row[1].(string)
		key := strconv.Itoa(int(k)) + "/" + colour
		if state[key] += c.W; state[key] == 0 {
			delete(state, key)
		}
	}
}

// TestExactlyOnceInCommitOrder is the subscriber check of the delivery
// contract, under concurrency: one goroutine publishes random inserts
// and deletes while subscriptions in several filter classes open on
// three connections at random moments, most of them unsubscribe after a
// few updates, and one connection stops reading until it is evicted.
// Every subscription receives each change to its filter class after its
// snapshot cursor exactly once and in commit order, no notification
// reaches the wire ahead of the reply that named its subscription, and
// after a sentinel transaction every live subscription's snapshot plus
// its deltas equals the service's contents under its filter.
func TestExactlyOnceInCommitOrder(t *testing.T) {
	const (
		minTxns    = 600
		maxTxns    = 20000
		churn      = 250 // subscriptions opened on each healthy connection
		stalledFor = 24  // subscriptions on the stalled connection
		queueLen   = 16
	)
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	svc := New(Config{QueueLen: queueLen})
	defer svc.Close()

	kick := make(chan struct{}, 1)
	kickPublisher := func() {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	var taps []*wireTap
	var clients []*Client
	var stalled *throttle
	var stalledConn *jsonrpc.Conn
	for i := 0; i < 3; i++ {
		a, b := net.Pipe()
		c := svc.ServeConn(b)
		var rwc io.ReadWriteCloser = a
		if i == 2 {
			stalled, stalledConn = newThrottle(a), c
			rwc = stalled
		}
		tap := newWireTap(rwc, kickPublisher)
		taps = append(taps, tap)
		cl := NewClient(tap)
		defer cl.Close()
		clients = append(clients, cl)
	}

	// The publisher's model of R, which the service's contents must
	// equal, and per transaction the filter classes it touched (bit i for
	// orderFilters[i], and sentinelBit on the last), written before the
	// transaction is published.
	filters := make([][]fieldFilter, len(orderFilters))
	for i, f := range orderFilters {
		filters[i] = mustFilter(t, wireFilter(f))
	}
	model := map[[2]any]bool{}
	touched := make([]uint8, maxTxns+2)
	var sentinel uint64 // read once the publisher is done
	published := make(chan struct{})
	subscribed := make(chan struct{})
	stalledNow := make(chan struct{})
	go func() {
		defer close(published)
		rng := rand.New(rand.NewSource(seed))
		colours := []string{"red", "blue"}
		last := false
		for txn := uint64(1); !last; txn++ {
			if txn == minTxns/2 {
				<-stalledNow // the rest go to a connection that reads nothing
			}
			if txn%2 == 1 {
				// Two txns for each subscribe the server has just read,
				// so that publishes land while it is being served.
				select {
				case <-kick:
				case <-subscribed:
				}
			}
			if txn >= minTxns {
				select {
				case <-subscribed:
					last = true
				default:
					last = txn == maxTxns+1
				}
			}
			var entries []zset.Entry
			toggle := func(k int64, c string) {
				key := [2]any{k, c}
				w := int64(1)
				if model[key] {
					w = -1
					delete(model, key)
				} else {
					model[key] = true
				}
				rec := orderRow(k, c)
				for i, f := range filters {
					if match(rec, f) {
						touched[txn] |= 1 << i
					}
				}
				entries = append(entries, zset.Entry{Rec: rec, Weight: w})
			}
			if txn == 1 {
				// Rows that only the unfiltered class sees. They make its
				// snapshot replies long to encode, and so the stretch
				// between registering a subscription and queueing its
				// reply, which the wire tap's ordering check probes.
				for k := int64(100); k < 500; k++ {
					toggle(k, "grey")
				}
			}
			if last {
				// One change in every filter class.
				sentinel = txn
				touched[txn] = sentinelBit
				toggle(3, "red")
				toggle(3, "blue")
			} else {
				seen := map[[2]any]bool{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k, c := int64(rng.Intn(16)), colours[rng.Intn(2)]
					if !seen[[2]any{k, c}] {
						seen[[2]any{k, c}] = true
						toggle(k, c)
					}
				}
			}
			svc.Publish(txn, d("R", entries...))
			// Pace the healthy connections' readers, so that only the
			// stalled connection's subscriptions fill their counts.
			for deadline := time.Now().Add(10 * time.Second); txn%4 == 0 && maxBacklog(svc, stalledConn) > queueLen/2; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Errorf("txn %d: the healthy connections drained nothing for 10s", txn)
					return
				}
			}
		}
	}()

	// Subscribers: each connection opens its subscriptions at random
	// moments while the publisher runs. On the healthy connections most
	// unsubscribe after a few updates; the stalled connection's stay, and
	// it stops reading once they are open.
	var mu sync.Mutex
	var subs []*orderSub
	var wg, late sync.WaitGroup
	open := func(ci, f int, keep int) bool {
		sub, err := clients[ci].Subscribe("R", orderFilters[f])
		if err != nil {
			t.Errorf("conn %d: Subscribe: %v", ci, err)
			return false
		}
		o := &orderSub{sub: sub, filter: f, conn: ci, keep: keep, done: make(chan struct{})}
		go o.consume(touched)
		mu.Lock()
		subs = append(subs, o)
		mu.Unlock()
		return true
	}
	for ci := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := churn
			if ci == 2 {
				n = stalledFor
				defer func() {
					stalled.stall()
					close(stalledNow)
					// One more subscription on the congested connection,
					// behind notices its class already has pending there.
					late.Add(1)
					go func() {
						defer late.Done()
						open(2, 0, 0)
					}()
				}()
			}
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			for i := 0; i < n; i++ {
				for n := rng.Intn(4); n > 0; n-- {
					runtime.Gosched()
				}
				keep := 0
				if ci != 2 && rng.Intn(8) != 0 {
					keep = 1 + rng.Intn(3)
				}
				if !open(ci, rng.Intn(len(orderFilters)), keep) {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(subscribed)
	<-published
	stalled.resume()
	late.Wait()

	live, stalledEvicted := 0, 0
	for _, o := range subs {
		select {
		case <-o.done:
		case <-time.After(20 * time.Second):
			t.Fatalf("conn %d subscription %d: no sentinel and no end after 20s", o.conn, o.sub.ID)
		}
		for _, e := range o.errs {
			t.Errorf("conn %d subscription %d: %s", o.conn, o.sub.ID, e)
		}
		evicted, _ := o.sub.Evicted()
		switch {
		case evicted && o.conn == 2:
			stalledEvicted++
			continue
		case evicted:
			t.Errorf("conn %d subscription %d evicted on a paced connection", o.conn, o.sub.ID)
			continue
		case o.unsubscribed:
			continue
		case o.lastTxn != sentinel:
			t.Errorf("conn %d subscription %d ended at txn %d, neither evicted nor unsubscribed", o.conn, o.sub.ID, o.lastTxn)
			continue
		}
		live++
		want := map[string]int64{}
		for key := range model {
			if rec := orderRow(key[0].(int64), key[1].(string)); match(rec, filters[o.filter]) {
				want[fmt.Sprintf("%d/%s", key[0], key[1])] = 1
			}
		}
		if fmt.Sprint(o.state) != fmt.Sprint(want) {
			t.Errorf("conn %d subscription %d (filter %v, snapshot txn %d) holds\n%v\nwant\n%v",
				o.conn, o.sub.ID, orderFilters[o.filter], o.sub.Txn, o.state, want)
		}
	}
	for i, tap := range taps {
		clients[i].Close() // the tap's decoder reads to the end
		tap.read.Wait()
		tap.mu.Lock()
		for _, e := range tap.errs {
			t.Errorf("conn %d: %s", i, e)
		}
		tap.mu.Unlock()
	}
	if stalledEvicted == 0 {
		t.Errorf("no subscription on the stalled connection was evicted")
	}
	if live < 10 {
		t.Errorf("only %d live subscriptions reached the sentinel", live)
	}
	t.Logf("%d txns, %d subscriptions: %d live at the sentinel, %d evicted on the stalled connection",
		sentinel, len(subs), live, stalledEvicted)
}

// maxBacklog is the largest pending count of a subscription that is not on
// the skipped connection.
func maxBacklog(svc *Service, skip *jsonrpc.Conn) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	n := 0
	for _, rs := range svc.rels {
		for _, cl := range rs.classes {
			for cs, members := range cl.members {
				for _, sub := range members {
					if cs.conn != skip {
						n = max(n, sub.backlog)
					}
				}
			}
		}
	}
	return n
}

// wireFilter is the wire form of a client filter.
func wireFilter(f map[int]any) map[string]any {
	if f == nil {
		return nil
	}
	m := map[string]any{}
	for k, v := range f {
		if n, ok := v.(int); ok {
			v = float64(n)
		}
		m[fmt.Sprint(k)] = v
	}
	return m
}
