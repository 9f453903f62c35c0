package obs

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainDelay is how long /readyz answers 503 "draining" before a binary
// actually stops serving, so load balancers stop routing first.
const drainDelay = 200 * time.Millisecond

// Flags is the -obs-* command-line surface every binary shares.
type Flags struct {
	addr            *string
	events          *int
	instance        *string
	slowBudget      *time.Duration
	historyInterval *time.Duration
}

// RegisterFlags declares the -obs-* flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		addr:            fs.String("obs-addr", "", "serve /metrics, /debug/traces, /debug/events and pprof on this address (off when empty)"),
		events:          fs.Int("obs-events", 0, "flight-recorder event ring capacity (0 = default, negative = disable events)"),
		instance:        fs.String("obs-instance", "", "fleet-unique instance ID stamped on obs responses (default: the plane name)"),
		slowBudget:      fs.Duration("obs-slow-budget", 0, "pin transactions whose stages exceed this duration to /debug/incidents (0 = off)"),
		historyInterval: fs.Duration("obs-history-interval", time.Second, "metrics-history sampling interval (0 = off)"),
	}
}

// Start builds the observer the parsed flags describe and serves it on
// -obs-addr in the background, exiting the process if the listener
// fails. It returns nil (instrumentation off) when -obs-addr is empty.
// proc names the binary in log lines; plane is its obs identity.
func (f *Flags) Start(proc, plane string) *Observer {
	if *f.addr == "" {
		return nil
	}
	o := NewObserverWith(ObserverConfig{EventCapacity: *f.events})
	o.SetIdentity(plane, *f.instance)
	o.SetSlowBudget(*f.slowBudget)
	if *f.historyInterval > 0 {
		o.StartHistory(*f.historyInterval)
	}
	go func() {
		if err := o.ListenAndServe(*f.addr); err != nil {
			log.Fatalf("obs server: %v", err)
		}
	}()
	log.Printf("%s: observability on http://%s/metrics", proc, *f.addr)
	return o
}

// DrainOnSignal returns a channel closed once the process has received
// SIGINT or SIGTERM and /readyz has answered 503 "draining" for
// drainDelay; the caller stops serving then. Meant for main: the
// goroutine behind it lives until the signal. o may be nil.
func (o *Observer) DrainOnSignal(proc string) <-chan struct{} {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		log.Printf("%s: signal received, draining", proc)
		o.SetDraining()
		time.Sleep(drainDelay)
		close(drained)
	}()
	return drained
}
