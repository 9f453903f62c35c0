package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout is how long an op may take from origin to sink before it
// counts as failed.
const opTimeout = 5 * time.Second

var errOpTimeout = errors.New("op did not reach the sink within 5s")

// now is nanoseconds on the process's monotonic clock.
func now() int64 { return int64(time.Since(timeBase)) }

var timeBase = time.Now()

// op is one issued operation on its way to the sink.
type op struct {
	key    uint64
	origin int64 // just before the call / inject
	ack    int64 // the call returned (commit reply)
	sunk   atomic.Int64
	need   atomic.Int32 // deliveries still outstanding
	bad    atomic.Bool  // the sink saw the change but the check against the switch failed
	err    error        // the originating call failed; set before done closes
	done   chan struct{}
	once   sync.Once // done closes once even if a failed call's change still arrives

	// Stage marks, filled in by the wrappers during the traced pass only.
	marks [numMarks]atomic.Int64
}

// sunkOp is the placeholder "previous op" of a slot nobody has used yet.
var sunkOp = func() *op {
	o := &op{done: make(chan struct{})}
	close(o.done)
	return o
}()

// wait blocks until the op reached the sink or opTimeout has passed
// since its origin.
func (o *op) wait() error {
	select {
	case <-o.done:
	default:
		t := time.NewTimer(opTimeout - time.Duration(now()-o.origin))
		defer t.Stop()
		select {
		case <-o.done:
		case <-t.C:
			return errOpTimeout
		}
	}
	if o.err != nil {
		return o.err
	}
	if o.bad.Load() {
		return errors.New("sink check failed: switch state does not hold the op's change")
	}
	return nil
}

// tracker maps sink keys to the ops waiting for them.
type tracker struct {
	mu      sync.RWMutex
	pending map[uint64]*op
}

func newTracker() *tracker { return &tracker{pending: make(map[uint64]*op)} }

// expect registers an op that needs the given number of deliveries; its
// origin is now.
func (t *tracker) expect(key uint64, need int) *op {
	o := &op{key: key, origin: now(), done: make(chan struct{})}
	o.need.Store(int32(need))
	t.mu.Lock()
	t.pending[key] = o
	t.mu.Unlock()
	return o
}

// hit records one delivery of key at time at; the last one sinks the op.
func (t *tracker) hit(key uint64, at int64, ok bool) {
	t.mu.RLock()
	o := t.pending[key]
	t.mu.RUnlock()
	if o == nil {
		return
	}
	if !ok {
		o.bad.Store(true)
	}
	if o.need.Add(-1) != 0 {
		return
	}
	t.mu.Lock()
	if t.pending[key] == o {
		delete(t.pending, key)
	}
	t.mu.Unlock()
	o.once.Do(func() {
		o.sunk.Store(at)
		close(o.done)
	})
}

// abandon ends an op whose originating call failed: nothing will sink it.
func (t *tracker) abandon(o *op, err error) {
	t.mu.Lock()
	if t.pending[o.key] == o {
		delete(t.pending, o.key)
	}
	t.mu.Unlock()
	o.once.Do(func() {
		o.err = err
		close(o.done)
	})
}

// tracer holds the op the traced pass has in flight (one at a time, so
// every wrapper callback between its origin and its sink belongs to it).
type tracer struct {
	on  atomic.Bool
	cur atomic.Pointer[op]
}

// mark stamps stage m on the traced op; outside the traced pass it costs
// one atomic load.
func (tr *tracer) mark(m int) {
	if !tr.on.Load() {
		return
	}
	if o := tr.cur.Load(); o != nil {
		o.marks[m].CompareAndSwap(0, now())
	}
}
