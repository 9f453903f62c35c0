package p4rt

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/p4"
)

func dialResilientT(t *testing.T, addr string, o *obs.Observer) (*ResilientClient, *faultnet.Dialer) {
	t.Helper()
	d := faultnet.NewDialer()
	r, err := DialResilient(ResilientConfig{
		Addr:       addr,
		Dial:       func(a string) (io.ReadWriteCloser, error) { return d.Dial(a) },
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Obs:        o,
		Target:     "sw0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, d
}

func waitP4Connected(t *testing.T, r *ResilientClient) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Connected() {
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
}

// killAndWaitRedial kills every connection and blocks until the
// supervisor has published the session after it. It waits on the dial
// count, which only rises: polling Connected() for the outage itself can
// miss it entirely when the redial (2 ms here) outruns the poll.
func killAndWaitRedial(t *testing.T, r *ResilientClient, d *faultnet.Dialer) {
	t.Helper()
	dials := d.Dials()
	d.KillAll()
	deadline := time.Now().Add(5 * time.Second)
	for d.Dials() == dials {
		if time.Now().After(deadline) {
			t.Fatalf("drop never noticed")
		}
		time.Sleep(time.Millisecond)
	}
	waitP4Connected(t, r) // the redial unpublished the dead session first
}

func TestResilientReconnectRunsHookAndHeals(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	_ = srv
	o := obs.NewObserver()
	r, d := dialResilientT(t, addr, o)

	var hookRuns atomic.Int64
	r.OnReconnect(func(c *Client, _ func() bool) error {
		// The hook sees a usable client: reconciliation reads device state.
		if _, err := c.ReadTable("t"); err != nil {
			return err
		}
		hookRuns.Add(1)
		return nil
	})
	if err := r.Write(InsertEntry(TableEntry{Table: "t", Action: "a"})); err != nil {
		t.Fatalf("write: %v", err)
	}

	d.KillAll()
	// Writes during the outage report ErrUnavailable, not a fatal error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := r.Write(InsertEntry(TableEntry{Table: "t", Action: "b"}))
		if err == nil {
			break // healed
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("write during outage = %v, want ErrUnavailable", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never healed")
		}
		time.Sleep(time.Millisecond)
	}
	if hookRuns.Load() < 1 {
		t.Fatalf("OnReconnect hook never ran")
	}
	if reasons := o.DegradedReasons(); len(reasons) != 0 {
		t.Fatalf("still degraded after heal: %v", reasons)
	}
	var snap strings.Builder
	o.Reg().WritePrometheus(&snap)
	if !strings.Contains(snap.String(), `p4rt_reconnects_total{target="sw0"} 1`) {
		t.Fatalf("reconnect counter missing:\n%s", snap.String())
	}
	select {
	case <-r.Done():
		t.Fatalf("resilient client died on a transient drop")
	default:
	}
}

func TestResilientHookFailureRetries(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	_, addr := startServer(t, dev)
	r, d := dialResilientT(t, addr, nil)

	var calls atomic.Int64
	r.OnReconnect(func(c *Client, _ func() bool) error {
		if calls.Add(1) < 3 {
			return errors.New("reconciliation failed; retry")
		}
		return nil
	})
	killAndWaitRedial(t, r, d)
	if n := calls.Load(); n != 3 {
		t.Fatalf("hook ran %d times, want 3 (failures must retry the redial)", n)
	}
}

// A write that times out closes its session: it reports ErrUnavailable,
// the supervisor redials, and the OnReconnect hook runs on the fresh
// session with no further write — so the resync the caller relies on
// always follows, even when the switch may yet apply the timed-out write.
func TestResilientTimeoutRedials(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	var stall sync.Once
	dev.SetWriteFault(func([]Update) error {
		stall.Do(func() { time.Sleep(300 * time.Millisecond) })
		return nil
	})
	_, addr := startServer(t, dev)
	d := faultnet.NewDialer()
	r, err := DialResilient(ResilientConfig{
		Addr:        addr,
		Dial:        func(a string) (io.ReadWriteCloser, error) { return d.Dial(a) },
		BackoffMin:  2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		CallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	hooked := make(chan struct{}, 1)
	r.OnReconnect(func(*Client, func() bool) error {
		select {
		case hooked <- struct{}{}:
		default:
		}
		return nil
	})

	dials := d.Dials()
	if err := r.Write(InsertEntry(TableEntry{Table: "t", Action: "a"})); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("timed-out write = %v, want ErrUnavailable", err)
	}
	select {
	case <-hooked:
	case <-time.After(5 * time.Second):
		t.Fatal("OnReconnect hook never ran: the timed-out session stayed published")
	}
	if d.Dials() == dials {
		t.Fatal("the timed-out session was not replaced")
	}
	waitP4Connected(t, r)
}

func TestResilientReArmsDigestHandler(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	r, d := dialResilientT(t, addr, nil)

	var mu sync.Mutex
	var got []uint64
	r.OnDigest(func(dl DigestList) {
		mu.Lock()
		got = append(got, dl.ListID)
		mu.Unlock()
	})
	killAndWaitRedial(t, r, d)
	// Give the server a beat to register the fresh connection's stream.
	time.Sleep(5 * time.Millisecond)
	srv.NotifyDigest(DigestList{Digest: "mac", ListID: 42})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("digest handler not re-armed after reconnect")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != 42 {
		t.Fatalf("digest list id = %d, want 42", got[0])
	}
}

// TestDigestAckFailureSurfaced is the regression test for the silently
// ignored digest-ack Notify error: when the connection dies before the
// auto-ack goes out, the failure must land in the write-error counter and
// the flight recorder instead of vanishing.
func TestDigestAckFailureSurfaced(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv, addr := startServer(t, dev)
	o := obs.NewObserver()
	c := dialT(t, addr)
	c.SetObs(o, "sw0")

	acked := make(chan struct{})
	c.OnDigest(func(dl DigestList) {
		// Kill the connection from inside the handler: the auto-ack that
		// follows must fail to send.
		c.Close()
		close(acked)
	})
	srv.NotifyDigest(DigestList{Digest: "mac", ListID: 7})
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatalf("digest never delivered")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var snap strings.Builder
		o.Reg().WritePrometheus(&snap)
		if strings.Contains(snap.String(), `p4rt_write_errors_total{target="sw0"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ack failure not counted:\n%s", snap.String())
		}
		time.Sleep(time.Millisecond)
	}
	var events strings.Builder
	o.Rec().WriteNDJSON(&events, obs.EventFilter{Plane: "p4rt", Kind: "digest.ack_failed"})
	if !strings.Contains(events.String(), "digest.ack_failed") {
		t.Fatalf("digest.ack_failed event missing:\n%s", events.String())
	}
}

func TestResilientGoroutinesTerminateOnClose(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	_, addr := startServer(t, dev)
	time.Sleep(5 * time.Millisecond)
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		d := faultnet.NewDialer()
		r, err := DialResilient(ResilientConfig{
			Addr:       addr,
			Dial:       func(a string) (io.ReadWriteCloser, error) { return d.Dial(a) },
			BackoffMin: 2 * time.Millisecond,
			BackoffMax: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		killAndWaitRedial(t, r, d) // exercise the redial loop before closing
		r.Close()
		select {
		case <-r.Done():
		case <-time.After(time.Second):
			t.Fatalf("Done not closed after Close")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d (base %d)\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
