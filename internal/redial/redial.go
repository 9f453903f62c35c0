// Package redial supervises one self-healing connection: it watches the
// live session, and when that dies redials with jittered exponential
// backoff, lets the owner re-arm the fresh session, and publishes it to
// RPC callers once re-armed. The OVSDB and P4Runtime resilient clients
// are both thin layers over it; what differs between them is only what
// "re-arm" means.
package redial

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Conn is what the supervisor needs of a session.
type Conn interface {
	// Done fires when the session has failed or been closed.
	Done() <-chan struct{}
	Close() error
}

// Config configures a Supervisor over sessions of type C.
type Config[C Conn] struct {
	// Connect establishes one fresh session.
	Connect func() (C, error)
	// Rearm runs on every fresh session before Get returns it (nil: no
	// re-arm). It may publish the session itself, from any goroutine but
	// before it returns, by calling publish, which reports false once the
	// supervisor is closed; a session Rearm did not publish is published
	// when it returns. An error withdraws and discards the session and
	// the backoff continues, so a published session is always a
	// re-armed one.
	Rearm func(c C, publish func() bool) error
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 5s). Each wait is jittered to half-to-full of the
	// current backoff so a fleet does not redial in lockstep.
	BackoffMin, BackoffMax time.Duration
	// ErrClosed and ErrDown are what Get returns after Close and while
	// redialing.
	ErrClosed, ErrDown error

	// Obs carries the degraded-readiness flag (under DegradedKey) and the
	// conn.drop / conn.redial events (on Plane, stamped with Device);
	// Reconnects and Disconnected are the owner's registered series. All
	// are nil-safe.
	Obs          *obs.Observer
	Plane        string
	Device       string
	DegradedKey  string
	Reconnects   *obs.Counter
	Disconnected *obs.Gauge
}

// Supervisor owns the current session of a self-healing client.
type Supervisor[C Conn] struct {
	cfg Config[C]

	mu     sync.Mutex
	cur    C
	up     bool // cur is published
	closed bool

	done chan struct{}
}

// New builds a supervisor; Start dials. The two are separate so the
// owner's hooks can refer to the supervisor.
func New[C Conn](cfg Config[C]) *Supervisor[C] {
	return &Supervisor[C]{cfg: cfg, done: make(chan struct{})}
}

// Start dials the first session and begins supervising it. The initial
// dial fails fast (a misconfigured address should not retry forever);
// only established sessions self-heal.
func (s *Supervisor[C]) Start() error {
	c, err := s.cfg.Connect()
	if err != nil {
		return err
	}
	s.cur, s.up = c, true
	go s.run(c)
	return nil
}

// Get returns the published session, or ErrClosed / ErrDown.
func (s *Supervisor[C]) Get() (C, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var none C
	if s.closed {
		return none, s.cfg.ErrClosed
	}
	if !s.up {
		return none, s.cfg.ErrDown
	}
	return s.cur, nil
}

// Connected reports whether a session is currently published.
func (s *Supervisor[C]) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

// Done fires on Close, never on transient connection loss.
func (s *Supervisor[C]) Done() <-chan struct{} { return s.done }

// Close permanently shuts the supervisor down and closes the published
// session, if any.
func (s *Supervisor[C]) Close() error {
	s.mu.Lock()
	c, up, first := s.cur, s.up, !s.closed
	s.closed, s.up = true, false
	s.mu.Unlock()
	if first {
		close(s.done)
	}
	if up {
		return c.Close()
	}
	return nil
}

// withdraw unpublishes the session, reporting false once closed.
// Readiness changes in the same step: the degraded flag and the
// disconnected gauge go up.
func (s *Supervisor[C]) withdraw() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.up = false
	s.cfg.Disconnected.Set(1)
	s.cfg.Obs.SetDegraded(s.cfg.DegradedKey, "connection lost; reconnecting")
	return true
}

// run watches the live session and heals it on failure.
func (s *Supervisor[C]) run(c C) {
	rec := s.cfg.Obs.Rec()
	for {
		select {
		case <-c.Done():
		case <-s.done:
			return
		}
		if !s.withdraw() {
			return
		}
		rec.Append(obs.Ev(s.cfg.Plane, "conn.drop").WithDevice(s.cfg.Device))
		b := newBackoff(s.cfg.BackoffMin, s.cfg.BackoffMax)
		for attempts := 1; ; attempts++ {
			select {
			case <-s.done:
				return
			case <-time.After(b.next()):
			}
			var err error
			if c, err = s.attempt(); err == nil {
				rec.Append(obs.Ev(s.cfg.Plane, "conn.redial").WithDevice(s.cfg.Device).
					F("attempts", int64(attempts)))
				break
			}
		}
	}
}

var errClosed = errors.New("redial: closed during a redial attempt")

// attempt makes one redial attempt: connect, then re-arm, publishing
// the session once, from inside Rearm or after it, unless closed
// meanwhile. On any error the session is withdrawn and closed.
func (s *Supervisor[C]) attempt() (C, error) {
	c, err := s.cfg.Connect()
	if err != nil {
		return c, err
	}
	// Publication and readiness change in one step: publishing counts a
	// reconnect and clears the degraded flag and the disconnected gauge,
	// so no caller can use a session the observer still reports down.
	published := false // guarded by s.mu: Rearm may publish from another goroutine
	publish := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !published && !s.closed {
			published, s.cur, s.up = true, c, true
			s.cfg.Reconnects.Inc()
			s.cfg.Disconnected.Set(0)
			s.cfg.Obs.ClearDegraded(s.cfg.DegradedKey)
		}
		return !s.closed
	}
	if s.cfg.Rearm != nil {
		err = s.cfg.Rearm(c, publish)
	}
	if err == nil && !publish() {
		err = errClosed
	}
	if err != nil {
		s.withdraw()
		c.Close()
	}
	return c, err
}

// backoff is the jittered exponential redial schedule.
type backoff struct{ cur, max time.Duration }

func newBackoff(lo, hi time.Duration) *backoff {
	if lo <= 0 {
		lo = 50 * time.Millisecond
	}
	if hi <= 0 {
		hi = 5 * time.Second
	}
	return &backoff{cur: lo, max: hi}
}

// next returns the wait before the next attempt — uniform in
// [cur/2, cur] — and doubles cur up to max.
func (b *backoff) next() time.Duration {
	wait := b.cur/2 + time.Duration(rand.Int63n(int64(b.cur/2)+1))
	if b.cur *= 2; b.cur > b.max {
		b.cur = b.max
	}
	return wait
}

// DialStream opens the byte stream of one session: dial(addr), or TCP
// when dial is nil (tests substitute fault-injecting dialers).
func DialStream(dial func(addr string) (io.ReadWriteCloser, error), addr string) (io.ReadWriteCloser, error) {
	if dial != nil {
		return dial(addr)
	}
	return net.Dial("tcp", addr)
}
