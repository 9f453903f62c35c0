// Package subscribe turns the controller's derived relations into a
// queryable network-state service: many JSON-RPC clients subscribe to
// output relations (optionally with field filters) and receive an
// initial snapshot followed by incremental deltas attributed with the
// originating transaction ID.
//
// The service materializes each published relation as a Z-set of its
// own (fed by the controller's OnDelta tap), so a subscriber's snapshot
// and its subsequent delta stream are cut under one lock: every delta
// published after the snapshot is delivered exactly once, and none that
// the snapshot already contains. Fan-out is a tree keyed by relation,
// then by filter class (the subscribers with the same filter), then by
// connection: each delta is rendered to wire bytes once per class, and
// queued once per class and connection, naming every member of the
// class on that connection. Each connection has one delivery goroutine
// that sends its queue in publish order. Every subscription is bounded
// by a count of the updates published to it and not yet sent; one whose
// count is full when a delta arrives is evicted — the service never
// blocks the controller's event loop on a slow reader — its unsent
// updates are withheld, and it is told so with a final "sub_evicted"
// notification; the recovery path is to resubscribe, which yields a
// fresh snapshot.
//
// Wire protocol (JSON-RPC 1.0, same framing as the OVSDB plane):
//
//	request  "subscribe"   params [id, relation, {"filter": {"<col>": v}}?]
//	         → {"relation": r, "txn": t, "rows": [{"row": [...], "w": 1}, ...]}
//	request  "unsubscribe" params [id]          → {}
//	request  "relations"   params []            → {"relations": [...]}
//	request  "echo"        params any           → params (keepalive)
//	notify   "sub_update"  params [{"subs": [id, ...], "txn": t, "changes": [{"row": [...], "w": ±n}, ...]}]
//	notify   "sub_evicted" params [{"sub": id, "reason": r, "pending": n}]
//
// Rows render records as JSON arrays (bool, number, string, or nested
// array for tuples); "w" is the Z-set weight (+ inserts, − deletes).
// One "sub_update" carries a delta to every subscription it names, ids
// ascending: the subscriptions of one filter class on the connection.
// (A peer that reads a single "sub" member, the form before "subs",
// decodes no update.) A "sub_evicted" notice's "pending" counts the
// updates published to the subscription that it will not receive.
// The client names each subscription with an id greater than every id
// it named before on the connection, so it can register the
// subscription before asking for it. The server holds the updates
// published to a subscription until its "subscribe" reply is queued: no
// "sub_update" or "sub_evicted" for an id reaches the wire ahead of that
// id's reply.
package subscribe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
	"repro/internal/jsonrpc"
	"repro/internal/obs"
	"repro/internal/wirejson"
)

// defaultQueueLen bounds a subscriber's pending updates when
// Config.QueueLen is zero.
const defaultQueueLen = 256

// writeLimit caps each connection's JSON-RPC write queue (the layer
// below the pending updates; it backstops replies and eviction notices
// too). Overflow fails the connection.
const writeLimit = 4096

// softLimit is where a connection's delivery goroutine stops feeding its
// congested JSON-RPC write queue and instead lets its subscribers'
// pending counts fill (and evict). It sits well below writeLimit so
// slowness surfaces as subscriber eviction — which the client can
// recover from with a resubscribe — rather than connection failure.
const softLimit = 64

// Config tunes one Service.
type Config struct {
	// QueueLen bounds each subscriber's pending updates (published to it
	// and not yet sent); a delta arriving at a full count evicts the
	// subscriber. 0 selects the default (256).
	QueueLen int
	// Obs receives sub_* metrics, subscriber.evict events, and the
	// /debug/subscribers endpoint. nil disables instrumentation.
	Obs *obs.Observer
}

// relState is one relation's fan-out node: the materialized contents
// plus the subscribers watching it, grouped by filter class.
type relState struct {
	z *zset.ZSet
	// sorted is z's entries in Entries order, the snapshot subscribes
	// cut their rows from: sorted once per publish that changed z, on the
	// first subscribe after it, not once per subscribe. nil when stale.
	sorted  []zset.Entry
	classes map[string]*filterClass
}

// filterClass is the subscribers of one relation that share one filter
// (nil for the unfiltered class). Publish renders each delta once per
// class and queues it once per connection the class has members on.
type filterClass struct {
	key    string // classKey of filter, its name in relState.classes
	filter []fieldFilter
	// members lists the class's subscribers on each connection in
	// ascending id order: a connection's ids rise, and a new subscriber
	// is appended.
	members map[*connState][]*subscriber
	n       int // subscribers across all of members
}

// connState is the service's view of one client connection; it is also
// the connection's JSON-RPC handler.
type connState struct {
	svc    *Service
	conn   *jsonrpc.Conn
	remote string
	subs   map[uint64]*subscriber // by the client's id; guarded by svc.mu
	// lastID is the highest id a subscription on this connection was
	// accepted under; a new one must name a greater id.
	lastID uint64

	// pending[head:] are the notifications awaiting the delivery
	// goroutine, in publish order; guarded by svc.mu.
	pending []notice
	head    int
	wake    chan struct{} // capacity 1: pending grew
	// delivered closes when the delivery goroutine exits.
	delivered chan struct{}
}

// notice is one notification pending on a connection: a filter class's
// rendered delta for the members the class had there when it was
// published, or, when evict is set, an eviction notice.
type notice struct {
	txn     uint64
	changes []byte        // the class's rendering, shared read-only
	subs    []*subscriber // ascending ids; this notice's own copy
	evict   *evictMsg
}

// subscriber is one (connection, relation, filter) subscription. Its
// fields below cs are guarded by svc.mu.
type subscriber struct {
	id       uint64 // the client's name for it, unique on its connection
	relation string
	class    *filterClass
	cs       *connState
	since    time.Time

	// backlog counts the updates published to it and not yet taken by
	// the delivery goroutine: the count QueueLen bounds.
	backlog int
	// sent counts delivered update notifications (debug surface).
	sent uint64
	// replied is set once its subscribe reply is queued. Until then its
	// notices are held here, not on the connection, so none overtakes
	// the reply.
	replied bool
	held    []notice
	removed bool
}

// Change is one weighted row as a client decodes it: a record's JSON
// array (bool, float64, string, or []any for a tuple) plus its Z-set
// weight (positive inserts, negative deletes).
type Change struct {
	Row []any `json:"row"`
	W   int64 `json:"w"`
}

// updateParams is the "sub_update" params, [{"subs":[…],"txn":…,"changes":…}],
// around a class's rendered changes.
type updateParams struct {
	subs    []uint64
	txn     uint64
	changes []byte
}

func (p *updateParams) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `[{"subs":[`...)
	for i, id := range p.subs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, id, 10)
	}
	dst = strconv.AppendUint(append(dst, `],"txn":`...), p.txn, 10)
	dst = append(append(dst, `,"changes":`...), p.changes...)
	return append(dst, "}]"...), nil
}

// snapshotReply is the "subscribe" result, {"relation":…,"txn":…,"rows":…},
// around the rendered snapshot. Once it is queued, AfterReply moves the
// subscriber's held updates to its connection's queue: updates follow
// the reply on the wire.
type snapshotReply struct {
	sub  *subscriber
	txn  uint64
	rows []byte
}

func (r snapshotReply) AppendJSON(dst []byte) ([]byte, error) {
	dst = wirejson.AppendString(append(dst, `{"relation":`...), r.sub.relation)
	dst = strconv.AppendUint(append(dst, `,"txn":`...), r.txn, 10)
	dst = append(append(dst, `,"rows":`...), r.rows...)
	return append(dst, '}'), nil
}

// AfterReply moves the notices held for the subscriber onto its
// connection's queue, where every later one follows them.
func (r snapshotReply) AfterReply() {
	sub := r.sub
	s := sub.cs.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.replied = true
	for _, n := range sub.held {
		sub.cs.queueLocked(n)
	}
	sub.held = nil
}

// evictMsg is the "sub_evicted" notification payload.
type evictMsg struct {
	Sub     uint64 `json:"sub"`
	Reason  string `json:"reason"`
	Pending int    `json:"pending"`
}

// Service is the derived-relation pub/sub fan-out. Create with New,
// feed with Publish (normally via core.Config.OnDelta), serve clients
// with Serve/ServeConn. The endpoint — those two, SetKeepalive and
// Close, which ends every connection and with it every subscription —
// is the embedded jsonrpc.Server.
type Service struct {
	*jsonrpc.Server
	cfg Config
	rec *obs.Recorder

	mu      sync.Mutex
	rels    map[string]*relState
	catalog map[string]bool // nil = accept any relation name
	lastTxn uint64
	nSubs   int
	buf     []byte // Publish renders a class here, then copies it out

	m struct {
		subscribers  *obs.Gauge
		subsTotal    *obs.Counter
		unsubsTotal  *obs.Counter
		evictions    *obs.Counter
		updates      *obs.Counter
		updateRows   *obs.Counter
		snapshotRows *obs.Counter
		dropped      *obs.Counter
	}
}

// New builds a Service and, when cfg.Obs is set, registers its metrics
// and the /debug/subscribers endpoint.
func New(cfg Config) *Service {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = defaultQueueLen
	}
	s := &Service{
		cfg:  cfg,
		rec:  cfg.Obs.Rec(),
		rels: make(map[string]*relState),
	}
	s.Server = jsonrpc.NewServer(writeLimit, func(c *jsonrpc.Conn) (jsonrpc.Handler, func()) {
		cs := &connState{svc: s, conn: c, remote: c.RemoteAddr(), subs: make(map[uint64]*subscriber),
			wake: make(chan struct{}, 1), delivered: make(chan struct{})}
		go cs.deliver()
		return cs, cs.teardown
	})
	s.SetObs(cfg.Obs, "subscribe")
	reg := cfg.Obs.Reg()
	s.m.subscribers = reg.Gauge("sub_subscribers",
		"Active subscriptions across all connections.")
	s.m.subsTotal = reg.Counter("sub_subscriptions_total",
		"Subscriptions accepted since start.")
	s.m.unsubsTotal = reg.Counter("sub_unsubscribes_total",
		"Explicit unsubscribes honored.")
	s.m.evictions = reg.Counter("sub_evictions_total",
		"Subscribers evicted for not draining their updates.")
	s.m.updates = reg.Counter("sub_updates_total",
		"Delta updates queued to subscribers, one per subscriber.")
	s.m.updateRows = reg.Counter("sub_update_rows_total",
		"Weighted rows carried by queued delta updates.")
	s.m.snapshotRows = reg.Counter("sub_snapshot_rows_total",
		"Rows served in initial snapshots.")
	s.m.dropped = reg.Counter("sub_dropped_updates_total",
		"Updates withheld from evicted subscribers.")
	reg.GaugeFunc("sub_connections",
		"Open subscriber connections.", func() float64 { return float64(s.Conns()) })
	reg.GaugeFunc("sub_pending_updates",
		"Updates queued across all subscribers, awaiting delivery.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, rs := range s.rels {
				for _, cl := range rs.classes {
					for _, members := range cl.members {
						for _, sub := range members {
							n += sub.backlog
						}
					}
				}
			}
			return float64(n)
		})
	cfg.Obs.RegisterDebug("/debug/subscribers", http.HandlerFunc(s.handleDebug))
	return s
}

// SetCatalog restricts subscribe to the given relation names (normally
// the controller's OutputRelations). Without a catalog any name is
// accepted; unknown relations simply start empty and never change.
func (s *Service) SetCatalog(names []string) {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	s.mu.Lock()
	s.catalog = m
	s.mu.Unlock()
}

// Publish feeds one transaction's output delta into the fan-out. It is
// the core.Config.OnDelta shape: called post-push on the controller's
// event loop, so it must not block — enqueue or evict, never wait.
func (s *Service) Publish(txn uint64, delta engine.Delta) {
	if s == nil || len(delta) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if txn != 0 {
		// Digest-originated deltas (MAC learning) carry no transaction;
		// the cursor stays at the last one that did.
		s.lastTxn = txn
	}
	for rel, dz := range delta {
		if dz.IsEmpty() {
			continue
		}
		rs := s.relLocked(rel)
		rs.z.AddAll(dz)
		rs.sorted = nil
		if len(rs.classes) == 0 {
			continue
		}
		entries := dz.Entries()
		var evict []*subscriber
		for _, cl := range rs.classes {
			var n int
			s.buf, n = appendChanges(s.buf[:0], entries, cl.filter)
			if n == 0 {
				continue
			}
			// The class's bytes are read by every connection's delivery
			// goroutine and written by nobody.
			changes := bytes.Clone(s.buf)
			// Each notice keeps its own copy of the members, so one who
			// joins later does not receive this delta. The copies are
			// cut from one array per class: whether the class has one
			// subscriber on each of many connections or many on one,
			// Publish allocates per class, not per subscriber.
			to := make([]*subscriber, 0, cl.n)
			for cs, members := range cl.members {
				start := len(to)
				queued := 0
				for _, sub := range members {
					if sub.backlog >= s.cfg.QueueLen {
						evict = append(evict, sub)
						continue
					}
					sub.backlog++
					queued++
					if sub.replied {
						to = append(to, sub)
					} else {
						sub.held = append(sub.held, notice{txn: txn, changes: changes, subs: []*subscriber{sub}})
					}
				}
				if len(to) > start {
					cs.queueLocked(notice{txn: txn, changes: changes, subs: to[start:len(to):len(to)]})
				}
				s.m.updates.Add(uint64(queued))
				s.m.updateRows.Add(uint64(queued * n))
			}
		}
		for _, sub := range evict {
			s.evictLocked(sub, "slow consumer: queue full")
		}
	}
}

// queueLocked appends a notice to the connection's queue and wakes its
// delivery goroutine.
func (cs *connState) queueLocked(n notice) {
	if cs.head > 0 && len(cs.pending) == cap(cs.pending) {
		// Reuse the slots already taken before append grows the array.
		k := copy(cs.pending, cs.pending[cs.head:])
		clear(cs.pending[k:])
		cs.pending, cs.head = cs.pending[:k], 0
	}
	cs.pending = append(cs.pending, n)
	select {
	case cs.wake <- struct{}{}:
	default:
	}
}

// evictLocked removes a subscriber whose pending count is full. Its
// pending updates, and the one that found the count full, are withheld;
// the terminal "sub_evicted" notice, queued behind whatever the
// connection was already sent, says how many. The client's recovery is
// a fresh subscribe.
func (s *Service) evictLocked(sub *subscriber, reason string) {
	pending := sub.backlog + 1
	s.removeLocked(sub)
	s.m.evictions.Inc()
	s.m.dropped.Add(uint64(pending))
	s.rec.Append(obs.Ev("sub", "subscriber.evict").WithTxn(s.lastTxn).
		F("sub", int64(sub.id)).F("pending", int64(pending)))
	n := notice{evict: &evictMsg{Sub: sub.id, Reason: reason, Pending: pending}}
	if sub.replied {
		sub.cs.queueLocked(n)
	} else {
		sub.held = append(sub.held[:0], n)
	}
}

// removeLocked unregisters a subscriber. The notices still pending that
// name it are sent without it.
func (s *Service) removeLocked(sub *subscriber) {
	if sub.removed {
		return
	}
	sub.removed = true
	cl, cs := sub.class, sub.cs
	cl.n--
	if members := slices.DeleteFunc(cl.members[cs], func(m *subscriber) bool { return m == sub }); len(members) > 0 {
		cl.members[cs] = members
	} else if delete(cl.members, cs); len(cl.members) == 0 {
		delete(s.rels[sub.relation].classes, cl.key)
	}
	delete(cs.subs, sub.id)
	s.nSubs--
	s.m.subscribers.Add(-1)
}

// deliver sends the connection's notices in the order they were queued.
// It runs on the connection's one delivery goroutine for the
// connection's whole life. Before taking each notice it waits for the
// write queue to drain below the soft limit, so a slow reader turns into
// growing pending counts (and hence eviction) instead of unbounded
// jsonrpc queue growth or connection failure.
func (cs *connState) deliver() {
	defer close(cs.delivered)
	s := cs.svc
	msg := &updateParams{} // Notify renders it before returning
	for {
		select {
		case <-cs.wake:
		case <-cs.conn.Done():
			return
		}
		for cs.conn.WaitQueueBelow(softLimit) {
			s.mu.Lock()
			if cs.head == len(cs.pending) {
				cs.pending, cs.head = cs.pending[:0], 0
				s.mu.Unlock()
				break
			}
			n := cs.pending[cs.head]
			cs.pending[cs.head] = notice{}
			cs.head++
			msg.subs = msg.subs[:0]
			for _, sub := range n.subs {
				sub.backlog--
				if !sub.removed {
					sub.sent++
					msg.subs = append(msg.subs, sub.id)
				}
			}
			s.mu.Unlock()
			switch {
			case n.evict != nil:
				cs.conn.Notify("sub_evicted", []any{*n.evict})
			case len(msg.subs) > 0:
				msg.txn, msg.changes = n.txn, n.changes
				cs.conn.Notify("sub_update", msg)
			}
		}
	}
}

// teardown drops a departed connection's subscriptions once its
// delivery goroutine has stopped.
func (cs *connState) teardown() {
	<-cs.delivered
	s := cs.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range cs.subs {
		s.removeLocked(sub)
	}
	cs.pending, cs.head = nil, 0
}

// Subscribers reports the number of active subscriptions.
func (s *Service) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nSubs
}

// LastTxn reports the last published non-zero transaction ID.
func (s *Service) LastTxn() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTxn
}

// Handle implements jsonrpc.Handler for one client connection.
func (cs *connState) Handle(c *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "subscribe":
		return cs.handleSubscribe(params)
	case "unsubscribe":
		return cs.handleUnsubscribe(params)
	case "relations":
		return cs.svc.handleRelations(), nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}

// subscribeOpts is the optional second "subscribe" parameter.
type subscribeOpts struct {
	// Filter maps column index (JSON object keys are strings) to the
	// scalar the column must equal.
	Filter map[string]any `json:"filter"`
}

// handleSubscribe registers the subscriber and returns its snapshot
// reply, whose AfterReply releases the deltas held for it.
func (cs *connState) handleSubscribe(params json.RawMessage) (any, *jsonrpc.RPCError) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) < 2 || len(raw) > 3 {
		return nil, &jsonrpc.RPCError{Code: "bad params",
			Details: "want [id, relation] or [id, relation, opts]"}
	}
	var id uint64
	if err := json.Unmarshal(raw[0], &id); err != nil {
		return nil, &jsonrpc.RPCError{Code: "bad params", Details: "id must be a non-negative integer"}
	}
	var rel string
	if err := json.Unmarshal(raw[1], &rel); err != nil {
		return nil, &jsonrpc.RPCError{Code: "bad params", Details: "relation must be a string"}
	}
	var opts subscribeOpts
	if len(raw) == 3 {
		if err := json.Unmarshal(raw[2], &opts); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
	}
	filter, err := parseFilter(opts.Filter)
	if err != nil {
		return nil, &jsonrpc.RPCError{Code: "bad filter", Details: err.Error()}
	}

	s := cs.svc
	s.mu.Lock()
	select {
	case <-cs.conn.Done():
		// teardown, which runs once the connection is done, may already
		// have swept cs.subs: a subscriber added now would never be removed.
		s.mu.Unlock()
		return nil, &jsonrpc.RPCError{Code: "shutting down"}
	default:
	}
	if id <= cs.lastID {
		s.mu.Unlock()
		return nil, &jsonrpc.RPCError{Code: "bad id",
			Details: fmt.Sprintf("subscription id %d is not above %d", id, cs.lastID)}
	}
	if s.catalog != nil && !s.catalog[rel] {
		s.mu.Unlock()
		return nil, &jsonrpc.RPCError{Code: "unknown relation", Details: rel}
	}
	reply := s.subscribeLocked(cs, id, rel, filter)
	s.mu.Unlock()
	return reply, nil
}

// subscribeLocked registers a subscriber under the client's id in its
// filter class and cuts its snapshot. Deltas published to it before the
// reply's AfterReply are held on the subscriber; AfterReply moves them
// to the connection's queue.
func (s *Service) subscribeLocked(cs *connState, id uint64, rel string, filter []fieldFilter) snapshotReply {
	rs := s.relLocked(rel)
	key := classKey(filter)
	cl := rs.classes[key]
	if cl == nil {
		cl = &filterClass{key: key, filter: filter, members: make(map[*connState][]*subscriber)}
		rs.classes[key] = cl
	}
	sub := &subscriber{
		id:       id,
		relation: rel,
		class:    cl,
		cs:       cs,
		since:    time.Now(),
	}
	cl.members[cs] = append(cl.members[cs], sub)
	cl.n++
	cs.subs[id] = sub
	cs.lastID = id
	s.nSubs++
	if rs.sorted == nil {
		rs.sorted = rs.z.Entries()
	}
	rows, n := appendChanges(nil, rs.sorted, cl.filter)
	s.m.subscribers.Add(1)
	s.m.subsTotal.Inc()
	s.m.snapshotRows.Add(uint64(n))
	return snapshotReply{sub: sub, txn: s.lastTxn, rows: rows}
}

// relLocked returns a relation's fan-out node, creating it empty.
func (s *Service) relLocked(rel string) *relState {
	rs := s.rels[rel]
	if rs == nil {
		rs = &relState{z: zset.New(), classes: make(map[string]*filterClass)}
		s.rels[rel] = rs
	}
	return rs
}

func (cs *connState) handleUnsubscribe(params json.RawMessage) (any, *jsonrpc.RPCError) {
	var ids []uint64
	if err := json.Unmarshal(params, &ids); err != nil || len(ids) != 1 {
		return nil, &jsonrpc.RPCError{Code: "bad params", Details: "want [sub-id]"}
	}
	s := cs.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := cs.subs[ids[0]]
	if sub == nil {
		return nil, &jsonrpc.RPCError{Code: "unknown subscription",
			Details: fmt.Sprintf("%d", ids[0])}
	}
	s.removeLocked(sub)
	s.m.unsubsTotal.Inc()
	return map[string]any{}, nil
}

func (s *Service) handleRelations() any {
	s.mu.Lock()
	names := make([]string, 0, len(s.catalog))
	if s.catalog != nil {
		for n := range s.catalog {
			names = append(names, n)
		}
	} else {
		for n := range s.rels {
			names = append(names, n)
		}
	}
	s.mu.Unlock()
	sort.Strings(names)
	return map[string]any{"relations": names}
}

// handleDebug serves /debug/subscribers: the live fan-out tree.
func (s *Service) handleDebug(w http.ResponseWriter, r *http.Request) {
	type subInfo struct {
		Sub      uint64 `json:"sub"`
		Relation string `json:"relation"`
		Remote   string `json:"remote,omitempty"`
		Filtered bool   `json:"filtered,omitempty"`
		Queue    int    `json:"queue"`
		QueueCap int    `json:"queue_cap"`
		Sent     uint64 `json:"sent"`
		AgeSecs  int64  `json:"age_secs"`
	}
	type relInfo struct {
		Rows        int `json:"rows"`
		Subscribers int `json:"subscribers"`
	}
	conns := s.Conns()
	s.mu.Lock()
	out := struct {
		Txn         uint64             `json:"txn"`
		Connections int                `json:"connections"`
		Subscribers []subInfo          `json:"subscribers"`
		Relations   map[string]relInfo `json:"relations"`
	}{
		Txn:         s.lastTxn,
		Connections: conns,
		Relations:   make(map[string]relInfo, len(s.rels)),
	}
	now := time.Now()
	for name, rs := range s.rels {
		n := 0
		for _, cl := range rs.classes {
			for _, members := range cl.members {
				n += len(members)
				for _, sub := range members {
					out.Subscribers = append(out.Subscribers, subInfo{
						Sub: sub.id, Relation: sub.relation, Remote: sub.cs.remote,
						Filtered: cl.filter != nil,
						Queue:    sub.backlog, QueueCap: s.cfg.QueueLen,
						Sent:    sub.sent,
						AgeSecs: int64(now.Sub(sub.since).Seconds()),
					})
				}
			}
		}
		out.Relations[name] = relInfo{Rows: rs.z.Len(), Subscribers: n}
	}
	s.mu.Unlock()
	sort.Slice(out.Subscribers, func(i, j int) bool {
		return out.Subscribers[i].Sub < out.Subscribers[j].Sub
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// fieldFilter requires one record column to equal a scalar.
type fieldFilter struct {
	idx  int
	want any // bool, float64, or string (JSON scalar)
}

// parseFilter validates the wire filter map into match predicates.
func parseFilter(m map[string]any) ([]fieldFilter, error) {
	if len(m) == 0 {
		return nil, nil
	}
	fs := make([]fieldFilter, 0, len(m))
	for k, v := range m {
		idx, err := strconv.Atoi(k)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("filter key %q: want a non-negative column index", k)
		}
		switch v.(type) {
		case bool, float64, string:
		default:
			return nil, fmt.Errorf("filter %q: want a scalar (bool, number, string)", k)
		}
		fs = append(fs, fieldFilter{idx: idx, want: v})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].idx < fs[j].idx })
	return fs, nil
}

// match reports whether a record passes every filter predicate.
func match(rec value.Record, filter []fieldFilter) bool {
	for _, f := range filter {
		if f.idx >= len(rec) || !matchValue(rec[f.idx], f.want) {
			return false
		}
	}
	return true
}

// matchValue compares one engine value against a JSON scalar.
func matchValue(v value.Value, want any) bool {
	switch w := want.(type) {
	case bool:
		return v.Kind() == value.KindBool && v.Bool() == w
	case float64:
		switch v.Kind() {
		case value.KindInt:
			return float64(v.Int()) == w
		case value.KindBit:
			return float64(v.Bit()) == w
		}
		return false
	case string:
		return v.Kind() == value.KindString && v.Str() == w
	}
	return false
}

// classKey names a filter's class: one "column=value" term per
// predicate, the value in its JSON form so that the number 1 and the
// string "1" are different classes, the terms sorted. The unfiltered
// class is "".
func classKey(filter []fieldFilter) string {
	terms := make([]string, len(filter))
	for i, f := range filter {
		b := strconv.AppendInt(nil, int64(f.idx), 10)
		b = append(b, '=')
		switch w := f.want.(type) {
		case bool:
			b = strconv.AppendBool(b, w)
		case float64:
			b, _ = wirejson.AppendFloat(b, w) // finite: it was read from JSON
		case string:
			b = wirejson.AppendString(b, w)
		}
		terms[i] = string(b)
	}
	sort.Strings(terms)
	return strings.Join(terms, ",")
}

// appendChanges appends the entries that pass the filter as a JSON
// array of {"row":[…],"w":n} objects, in the entries' order, and
// reports how many it wrote. The bytes are what json.Marshal makes of
// the same rows as []Change.
func appendChanges(dst []byte, entries []zset.Entry, filter []fieldFilter) ([]byte, int) {
	dst = append(dst, '[')
	n := 0
	for _, e := range entries {
		if !match(e.Rec, filter) {
			continue
		}
		if n > 0 {
			dst = append(dst, ',')
		}
		n++
		dst = appendRow(append(dst, `{"row":`...), e.Rec)
		dst = strconv.AppendInt(append(dst, `,"w":`...), e.Weight, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']'), n
}

// appendRow appends a record, or a tuple's fields, as a JSON array:
// bool, number, string, or a nested array for a tuple.
func appendRow(dst []byte, fields []value.Value) []byte {
	dst = append(dst, '[')
	for i, v := range fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case value.KindBool:
			dst = strconv.AppendBool(dst, v.Bool())
		case value.KindInt:
			dst = strconv.AppendInt(dst, v.Int(), 10)
		case value.KindBit:
			dst = strconv.AppendUint(dst, v.Bit(), 10)
		case value.KindString:
			dst = wirejson.AppendString(dst, v.Str())
		case value.KindTuple:
			dst = appendRow(dst, v.Tuple())
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']')
}
