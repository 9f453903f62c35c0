package obs

import (
	"flag"
	"slices"
	"testing"
)

// TestRegisterFlagsSurface pins the -obs-* surface every binary shares:
// where to serve, the instance name and the slow-transaction budget. The
// ring, history interval and level have one value each, so they are not
// flags.
func TestRegisterFlagsSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"obs-addr", "obs-instance", "obs-slow-budget"}; !slices.Equal(got, want) {
		t.Fatalf("RegisterFlags declares %v, want %v", got, want)
	}
}

// TestStartWithoutAddrIsOff: without -obs-addr a binary collects nothing.
func TestStartWithoutAddrIsOff(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-obs-instance", "x", "-obs-slow-budget", "1s"}); err != nil {
		t.Fatal(err)
	}
	if o := f.Start("test", "core"); o != nil {
		t.Fatalf("Start with an empty -obs-addr = %p, want nil", o)
	}
}

// TestNewObserverRecordsEvents: every observer carries the event ring
// and exports its count.
func TestNewObserverRecordsEvents(t *testing.T) {
	o := NewObserver()
	rec := o.Rec()
	if rec == nil || len(rec.buf) != eventRingSize {
		t.Fatalf("NewObserver's recorder = %p, want a ring of %d", rec, eventRingSize)
	}
	rec.Append(Ev("core", "conn.resync"))
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d events after one append", rec.Len())
	}
	if got := o.Reg().Snapshot()["obs_events_total"]; got != 1 {
		t.Fatalf("obs_events_total = %v, want 1", got)
	}
}
