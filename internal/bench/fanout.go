package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/subscribe"
)

// fanoutRelations are the derived relations every access-port commit
// touches (snvs.Rules: InVlan, VlanOk and StripTag key on the port,
// MulticastGroup on the port's multicast membership), so spreading
// subscribers across them guarantees one update per subscriber per
// churn transaction — which is what makes the pacing and convergence
// accounting below exact. Flood is excluded: it only changes when a
// VLAN appears or disappears.
var fanoutRelations = []string{"InVlan", "VlanOk", "StripTag", "MulticastGroup"}

// FanoutConfig sizes the pub/sub fan-out experiment.
type FanoutConfig struct {
	// Subscribers is the healthy subscription count (default 10000),
	// spread over Conns client connections (default 200).
	Subscribers int
	Conns       int
	// ChurnTxns is how many port insert/delete commits drive the fan-out
	// (default 256; the slow-consumer eviction demo needs ~140 so the
	// stalled connection's write queue and its subscribers' pending counts
	// both fill).
	ChurnTxns int
}

// FanoutResult is the machine-readable report (BENCH_fanout.json).
type FanoutResult struct {
	Subscribers int      `json:"subscribers"`
	Conns       int      `json:"conns"`
	Relations   []string `json:"relations"`
	// SnapshotSecs is the time to open every subscription (each gets a
	// consistent initial snapshot).
	SnapshotSecs float64 `json:"snapshot_secs"`
	ChurnTxns    int     `json:"churn_txns"`
	ChurnSecs    float64 `json:"churn_secs"`
	// DeliveredUpdates counts updates received by healthy subscribers
	// during churn; UpdatesPerSec is the sustained fan-out rate.
	DeliveredUpdates uint64  `json:"delivered_updates"`
	UpdatesPerSec    float64 `json:"updates_per_sec"`
	// Converged counts subscribers whose cursor reached the sentinel
	// transaction with a state fingerprint matching the reference
	// snapshot — it must equal Subscribers.
	Converged    int     `json:"converged"`
	ConvergeSecs float64 `json:"converge_secs"`
	// Evictions is sub_evictions_total after the run; the experiment
	// stalls one extra connection so this is at least 1, and
	// EvictedRecovered reports that it resubscribed into a complete
	// fresh snapshot afterwards.
	Evictions        float64 `json:"evictions"`
	EvictedRecovered bool    `json:"evicted_recovered"`
	// HeapBytes is live heap with every subscription still open.
	HeapBytes uint64 `json:"heap_bytes"`
}

func (r *FanoutResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fanout: %d subscribers on %d conns over %v\n",
		r.Subscribers, r.Conns, r.Relations)
	fmt.Fprintf(&b, "  snapshots: %d in %.2fs\n", r.Subscribers, r.SnapshotSecs)
	fmt.Fprintf(&b, "  churn: %d txns in %.2fs -> %d updates (%.0f updates/s)\n",
		r.ChurnTxns, r.ChurnSecs, r.DeliveredUpdates, r.UpdatesPerSec)
	fmt.Fprintf(&b, "  converged: %d/%d in %.2fs after sentinel\n",
		r.Converged, r.Subscribers, r.ConvergeSecs)
	fmt.Fprintf(&b, "  evictions: %.0f (recovered: %v), heap %.1f MiB\n",
		r.Evictions, r.EvictedRecovered, float64(r.HeapBytes)/(1<<20))
	return b.String()
}

// fanSub is one healthy subscription plus the state its drainer
// maintains: an order-independent XOR fingerprint of the row set and
// the last transaction seen. XOR of a per-row hash is a valid set
// fingerprint here because output deltas are set-level (weights ±1):
// an insert toggles the row's bit pattern in, the matching delete
// toggles it back out.
type fanSub struct {
	rel    string
	sub    *subscribe.Subscription
	fp     atomic.Uint64
	cursor atomic.Uint64
}

func hashRow(row []any) uint64 {
	b, _ := json.Marshal(row)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// foldChanges XORs a batch of weighted rows into a fingerprint.
func foldChanges(fp uint64, changes []subscribe.Change) uint64 {
	for _, ch := range changes {
		if ch.W%2 != 0 {
			fp ^= hashRow(ch.Row)
		}
	}
	return fp
}

// stallReader wraps a stream so its reads can be parked and resumed —
// the stand-in for a subscriber process that stops draining its socket.
type stallReader struct {
	rwc  io.ReadWriteCloser
	dead chan struct{}
	once sync.Once

	mu   sync.Mutex
	gate chan struct{}
}

func newStallReader(rwc io.ReadWriteCloser) *stallReader {
	return &stallReader{rwc: rwc, dead: make(chan struct{})}
}

func (s *stallReader) stall() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate == nil {
		s.gate = make(chan struct{})
	}
}

func (s *stallReader) resume() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
}

func (s *stallReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-s.dead:
			return 0, io.ErrClosedPipe
		}
	}
	return s.rwc.Read(p)
}

func (s *stallReader) Write(p []byte) (int, error) { return s.rwc.Write(p) }

func (s *stallReader) Close() error {
	s.once.Do(func() { close(s.dead) })
	return s.rwc.Close()
}

// RunFanout measures the derived-relation pub/sub fan-out end to end:
// the full snvs stack runs with the subscription service tapped into
// core.Config.OnDelta, cfg.Subscribers clients subscribe over real TCP,
// and port churn drives one update per subscriber per commit. Every
// subscriber must converge — cursor at the final (sentinel) transaction
// and XOR state fingerprint equal to a reference snapshot taken after
// the churn. One extra connection stops reading mid-churn to exercise
// the slow-consumer eviction and resubscribe-with-fresh-snapshot path.
func RunFanout(cfg FanoutConfig) (*FanoutResult, error) {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 10000
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 200
	}
	if cfg.Conns > cfg.Subscribers {
		cfg.Conns = cfg.Subscribers
	}
	if cfg.ChurnTxns <= 0 {
		cfg.ChurnTxns = 256
	}

	// The service gets its own observer so sub_* counters reflect only
	// this experiment; the stack itself runs uninstrumented.
	o := obs.NewObserver()
	svc := subscribe.New(subscribe.Config{QueueLen: 64, Obs: o})
	defer svc.Close()
	spec := SnvsSpec(nil)
	spec.OnDelta = svc.Publish
	s, err := deploy.Start(spec)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	svc.SetCatalog(s.Ctrl.OutputRelations())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go svc.Serve(ln)

	if err := s.Transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}), ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "warm", "port_num": int64(9999), "vlan_mode": "access", "tag": int64(10),
	})); err != nil {
		return nil, err
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 1); err != nil {
		return nil, err
	}

	res := &FanoutResult{
		Subscribers: cfg.Subscribers,
		Conns:       cfg.Conns,
		Relations:   fanoutRelations,
		ChurnTxns:   cfg.ChurnTxns,
	}

	// Phase 1: open every subscription. Clients shrink their per-sub
	// buffers (the server's bound of 64 pending updates per subscription
	// is the backpressure budget); subscribers round-robin over the four
	// always-touched relations.
	subs := make([]*fanSub, cfg.Subscribers)
	clients := make([]*subscribe.Client, cfg.Conns)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	perConn := (cfg.Subscribers + cfg.Conns - 1) / cfg.Conns
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Conns)
	for c := 0; c < cfg.Conns; c++ {
		lo := c * perConn
		hi := lo + perConn
		if hi > cfg.Subscribers {
			hi = cfg.Subscribers
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			cl, err := subscribe.Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			cl.SetUpdatesBuffer(16)
			clients[c] = cl
			for i := lo; i < hi; i++ {
				fs := &fanSub{rel: fanoutRelations[i%len(fanoutRelations)]}
				sub, err := cl.Subscribe(fs.rel, nil)
				if err != nil {
					errs <- fmt.Errorf("subscribe %d (%s): %w", i, fs.rel, err)
					return
				}
				fs.sub = sub
				fs.fp.Store(foldChanges(0, sub.Rows))
				fs.cursor.Store(sub.Txn)
				subs[i] = fs
			}
		}(c, lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	res.SnapshotSecs = time.Since(start).Seconds()

	// Drainers fold every update into the fingerprint and advance the
	// cursor; delivered is the global pacing/throughput counter.
	var delivered atomic.Uint64
	var drainers sync.WaitGroup
	for _, fs := range subs {
		drainers.Add(1)
		go func(fs *fanSub) {
			defer drainers.Done()
			fp := fs.fp.Load()
			for u := range fs.sub.Updates {
				fp = foldChanges(fp, u.Changes)
				fs.fp.Store(fp)
				fs.cursor.Store(u.Txn)
				delivered.Add(1)
			}
		}(fs)
	}

	// The eviction victim: a pipe-backed connection (unbuffered, so a
	// stalled reader immediately parks the server's write loop) that
	// subscribes and then stops reading.
	pa, pb := net.Pipe()
	sr := newStallReader(pa)
	svc.ServeConn(pb)
	victim := subscribe.NewClient(sr)
	defer victim.Close()
	vsub, err := victim.Subscribe("InVlan", nil)
	if err != nil {
		return nil, fmt.Errorf("victim subscribe: %w", err)
	}
	sr.stall()

	// Phase 2: churn. Each commit inserts or deletes one access port,
	// touching all four relations by exactly one row. Commits are paced
	// against delivery — the publisher stays at most lag transactions
	// ahead of the slowest healthy subscriber, which keeps honest
	// consumers inside the server's bound of 64 pending updates (only the
	// stalled victim falls out).
	const lag = 32
	n := uint64(cfg.Subscribers)
	base := delivered.Load()
	waitDelivered := func(min uint64) error {
		deadline := time.Now().Add(120 * time.Second)
		for delivered.Load() < min {
			if err := s.Ctrl.Err(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fanout stalled: delivered %d, want >= %d",
					delivered.Load()-base, min-base)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	const slots = 8
	present := [slots]bool{}
	churnStart := time.Now()
	for i := 1; i <= cfg.ChurnTxns; i++ {
		slot := i % slots
		name := fmt.Sprintf("churn%d", slot)
		var op ovsdb.Operation
		if present[slot] {
			op = ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", name))
		} else {
			op = ovsdb.OpInsert("Port", map[string]ovsdb.Value{
				"name": name, "port_num": int64(100 + slot),
				"vlan_mode": "access", "tag": int64(10 + slot),
			})
		}
		present[slot] = !present[slot]
		if err := s.Transact(op); err != nil {
			return nil, err
		}
		if i > lag {
			if err := waitDelivered(base + n*uint64(i-lag)); err != nil {
				return nil, err
			}
		}
	}
	if err := waitDelivered(base + n*uint64(cfg.ChurnTxns)); err != nil {
		return nil, err
	}
	res.ChurnSecs = time.Since(churnStart).Seconds()
	res.DeliveredUpdates = delivered.Load() - base
	res.UpdatesPerSec = float64(res.DeliveredUpdates) / res.ChurnSecs

	// Sentinel: one more commit that touches all four relations. Once
	// every healthy subscriber's cursor reaches it with the reference
	// fingerprint, the stream delivered exactly the churn — nothing
	// lost, duplicated, or reordered.
	preTxn := svc.LastTxn()
	convergeStart := time.Now()
	if err := s.Transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": "sentinel", "port_num": int64(99), "vlan_mode": "access", "tag": int64(9),
	})); err != nil {
		return nil, err
	}
	sentinelDeadline := time.Now().Add(30 * time.Second)
	for svc.LastTxn() == preTxn {
		if err := s.Ctrl.Err(); err != nil {
			return nil, err
		}
		if time.Now().After(sentinelDeadline) {
			return nil, fmt.Errorf("sentinel commit never published")
		}
		time.Sleep(time.Millisecond)
	}
	sentinelTxn := svc.LastTxn()
	if err := waitDelivered(base + n*uint64(cfg.ChurnTxns+1)); err != nil {
		return nil, err
	}

	// Reference fingerprints: a fresh subscriber's snapshot after the
	// sentinel IS the converged state.
	ref, err := subscribe.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	expected := make(map[string]uint64, len(fanoutRelations))
	refRows := make(map[string]int, len(fanoutRelations))
	for _, rel := range fanoutRelations {
		rsub, err := ref.Subscribe(rel, nil)
		if err != nil {
			return nil, fmt.Errorf("reference subscribe %s: %w", rel, err)
		}
		if rsub.Txn != sentinelTxn {
			return nil, fmt.Errorf("reference snapshot of %s at txn %d, want %d",
				rel, rsub.Txn, sentinelTxn)
		}
		expected[rel] = foldChanges(0, rsub.Rows)
		refRows[rel] = len(rsub.Rows)
		rsub.Unsubscribe()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		converged := 0
		for _, fs := range subs {
			if fs.cursor.Load() == sentinelTxn && fs.fp.Load() == expected[fs.rel] {
				converged++
			}
		}
		res.Converged = converged
		if converged == cfg.Subscribers || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.ConvergeSecs = time.Since(convergeStart).Seconds()
	res.HeapBytes = heapAlloc()

	// Phase 3: the victim. The stall must have evicted it (not its
	// connection); resuming the reader drains the eviction notice, and
	// a resubscribe lands on a complete fresh snapshot.
	sr.resume()
	for range vsub.Updates {
	}
	evicted, _ := vsub.Evicted()
	if evicted {
		select {
		case <-victim.Done():
			// Eviction must not take the connection down.
		default:
			if re, err := victim.Subscribe("InVlan", nil); err == nil {
				res.EvictedRecovered = re.Txn == sentinelTxn && len(re.Rows) == refRows["InVlan"]
				re.Unsubscribe()
			}
		}
	}
	res.Evictions = o.Reg().Snapshot()["sub_evictions_total"]

	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
	drainers.Wait()
	return res, nil
}
