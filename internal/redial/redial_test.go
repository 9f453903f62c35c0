package redial

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRedialBackoffSchedule(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name     string
		min, max time.Duration
		want     []time.Duration // the un-jittered backoff of each attempt
	}{
		{"doubles to the cap", 10 * ms, 80 * ms, []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 80 * ms, 80 * ms}},
		{"cap between doublings", 10 * ms, 25 * ms, []time.Duration{10 * ms, 20 * ms, 25 * ms, 25 * ms}},
		{"defaults", 0, 0, []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5000 * ms, 5000 * ms}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Several schedules, so the jitter is sampled more than once
			// per step.
			for run := 0; run < 50; run++ {
				b := newBackoff(tc.min, tc.max)
				for i, want := range tc.want {
					if got := b.next(); got < want/2 || got > want {
						t.Fatalf("wait %d = %v, want within [%v, %v]", i, got, want/2, want)
					}
				}
			}
		})
	}
}

// fakeConn is a session the test can kill.
type fakeConn struct {
	id   int
	done chan struct{}
	once sync.Once
}

func (c *fakeConn) Done() <-chan struct{} { return c.done }
func (c *fakeConn) Close() error          { c.once.Do(func() { close(c.done) }); return nil }

func (c *fakeConn) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

var (
	errTestClosed = errors.New("test: closed")
	errTestDown   = errors.New("test: down")
)

// dialer hands out numbered fakeConns and remembers them.
type dialer struct {
	mu    sync.Mutex
	conns []*fakeConn
	fail  bool          // Connect fails while set
	gate  chan struct{} // when non-nil, Connect (after the first) blocks on it
	gated chan struct{} // receives once a Connect is blocked on gate
}

func (d *dialer) connect() (*fakeConn, error) {
	d.mu.Lock()
	gate, first := d.gate, len(d.conns) == 0
	d.mu.Unlock()
	if gate != nil && !first {
		d.gated <- struct{}{}
		<-gate
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fail {
		return nil, errors.New("test: dial refused")
	}
	c := &fakeConn{id: len(d.conns), done: make(chan struct{})}
	d.conns = append(d.conns, c)
	return c, nil
}

func (d *dialer) conn(i int) *fakeConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i >= len(d.conns) {
		return nil
	}
	return d.conns[i]
}

func (d *dialer) set(f func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f()
}

func start(t *testing.T, d *dialer, cfg Config[*fakeConn]) *Supervisor[*fakeConn] {
	t.Helper()
	cfg.Connect = d.connect
	cfg.ErrClosed, cfg.ErrDown = errTestClosed, errTestDown
	if cfg.BackoffMin == 0 {
		cfg.BackoffMin, cfg.BackoffMax = time.Millisecond, 4*time.Millisecond
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestRedialStartFailsFast(t *testing.T) {
	d := &dialer{fail: true}
	s := New(Config[*fakeConn]{Connect: d.connect})
	if err := s.Start(); err == nil {
		t.Fatal("Start succeeded with a refusing dialer")
	}
}

// publishFromLoop publishes the way an owner's event loop does: from
// another goroutine, while Rearm waits for it.
func publishFromLoop(publish func() bool) bool {
	ok := make(chan bool)
	go func() { ok <- publish() }()
	return <-ok
}

// A failing re-arm discards the session and the backoff continues, also
// when it fails after publishing the session: that session is withdrawn
// and closed. Only a re-armed session stays published.
func TestRedialFailingRearmRetries(t *testing.T) {
	d := &dialer{}
	var rearms, returned atomic.Int32
	var s *Supervisor[*fakeConn]
	s = start(t, d, Config[*fakeConn]{
		Rearm: func(c *fakeConn, publish func() bool) error {
			defer returned.Add(1)
			if _, err := s.Get(); err != errTestDown {
				t.Errorf("Get during re-arm = %v, want down (session %d must not be published yet)", err, c.id)
			}
			n := rearms.Add(1)
			if n <= 2 {
				return errors.New("test: re-arm failed")
			}
			if !publishFromLoop(publish) {
				t.Errorf("publish of session %d refused", c.id)
			}
			if got, err := s.Get(); err != nil || got != c {
				t.Errorf("Get after publish = %v, %v; want session %d", got, err, c.id)
			}
			if n == 3 {
				return errors.New("test: re-arm failed after publishing")
			}
			return nil
		},
	})
	first, _ := s.Get()
	first.Close() // the live session dies
	// Sessions 1 and 2 fail re-arm, 3 fails after publishing, 4 sticks.
	waitFor(t, "session 4 re-armed", func() bool { return returned.Load() == 4 })
	if r := rearms.Load(); r != 4 {
		t.Fatalf("rearm ran %d times, want 4", r)
	}
	for i := 1; i <= 3; i++ {
		if !d.conn(i).isClosed() {
			t.Errorf("discarded session %d was not closed", i)
		}
	}
	if d.conn(4).isClosed() || !s.Connected() {
		t.Fatalf("published session closed=%v connected=%v", d.conn(4).isClosed(), s.Connected())
	}
}

// A publish that comes after Close is refused: the session is closed,
// not published.
func TestRedialPublishAfterClose(t *testing.T) {
	d := &dialer{}
	inRearm, release := make(chan struct{}), make(chan struct{})
	published := make(chan bool, 1)
	s := start(t, d, Config[*fakeConn]{
		Rearm: func(_ *fakeConn, publish func() bool) error {
			close(inRearm)
			<-release
			published <- publish()
			return nil
		},
	})
	first, _ := s.Get()
	first.Close()
	<-inRearm
	s.Close()
	close(release)
	if <-published {
		t.Fatal("publish after Close = true")
	}
	waitFor(t, "late session closed", func() bool { return d.conn(1).isClosed() })
	if s.Connected() {
		t.Fatal("session published after Close")
	}
}

// Close during a backoff wait returns promptly and the supervision
// goroutine exits, without waiting the backoff out.
func TestRedialCloseDuringWait(t *testing.T) {
	base := runtime.NumGoroutine()
	d := &dialer{}
	s := start(t, d, Config[*fakeConn]{BackoffMin: time.Hour, BackoffMax: time.Hour})
	first, _ := s.Get()
	first.Close()
	waitFor(t, "drop noticed", func() bool { return !s.Connected() })
	t0 := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Done not closed after Close")
	}
	if _, err := s.Get(); err != errTestClosed {
		t.Fatalf("Get after Close = %v", err)
	}
	waitFor(t, "supervision goroutine exit", func() bool { return runtime.NumGoroutine() <= base })
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("Close took %v during an hour-long backoff", el)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// A session whose connect completes after Close is closed, not published.
func TestRedialConnectedAfterCloseIsClosed(t *testing.T) {
	d := &dialer{gate: make(chan struct{}), gated: make(chan struct{}, 1)}
	s := start(t, d, Config[*fakeConn]{})
	first, _ := s.Get()
	first.Close()
	<-d.gated // the redial is inside Connect
	s.Close()
	close(d.gate)
	waitFor(t, "late session closed", func() bool {
		c := d.conn(1)
		return c != nil && c.isClosed()
	})
	if s.Connected() {
		t.Fatal("session published after Close")
	}
	if _, err := s.Get(); err != errTestClosed {
		t.Fatalf("Get after Close = %v", err)
	}
}

// Publication and readiness are one step: a session is never published
// while the supervisor still reports the connection degraded or before
// it counts the reconnect. A session Rearm publishes is published and
// counted once, and a re-arm that fails after publishing reports the
// connection degraded again.
func TestRedialPublishClearsDegraded(t *testing.T) {
	o := obs.NewObserver()
	d := &dialer{}
	reconnects := o.Reg().Counter("test_reconnects_total", "")
	var returned atomic.Int32
	var s *Supervisor[*fakeConn]
	s = start(t, d, Config[*fakeConn]{
		Obs: o, DegradedKey: "test", Reconnects: reconnects,
		Disconnected: o.Reg().Gauge("test_disconnected", ""),
		Rearm: func(c *fakeConn, publish func() bool) error {
			defer returned.Add(1)
			if r := o.DegradedReasons(); len(r) != 1 {
				t.Errorf("re-arming session %d while reported healthy: %v", c.id, r)
			}
			publishFromLoop(publish)
			if _, err := s.Get(); err != nil {
				t.Errorf("Get after publish = %v", err)
			}
			if r := o.DegradedReasons(); len(r) != 0 {
				t.Errorf("session %d published while degraded: %v", c.id, r)
			}
			if n := reconnects.Value(); n != uint64(c.id) {
				t.Errorf("session %d published with %d reconnects counted", c.id, n)
			}
			if c.id == 1 {
				return errors.New("test: re-arm failed after publishing")
			}
			return nil
		},
	})
	first, _ := s.Get()
	d.set(func() { d.fail = true })
	first.Close()
	waitFor(t, "drop noticed", func() bool { return !s.Connected() })
	if len(o.DegradedReasons()) != 1 {
		t.Fatalf("degraded after a drop = %v, want one reason", o.DegradedReasons())
	}
	d.set(func() { d.fail = false })
	waitFor(t, "session 2 re-armed", func() bool { return returned.Load() == 2 })
	if r := o.DegradedReasons(); len(r) != 0 {
		t.Fatalf("degraded after republication = %v", r)
	}
	if !d.conn(1).isClosed() {
		t.Fatal("session 1 failed re-arm but was not closed")
	}
	// Session 2's attempt ends before its drop is watched, so session 3's
	// re-arm sees whether the end of that attempt counted it again.
	d.conn(2).Close()
	waitFor(t, "session 3 re-armed", func() bool { return returned.Load() == 3 })
}
