// Package bench is the evaluation harness: one runner per table/figure of
// the paper, each returning a report whose rows mirror what the paper
// published. cmd/nerpa-bench prints them; bench_test.go wraps them as
// testing.B benchmarks.
package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dl/engine"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4rt"
	"repro/internal/snvs"
	"repro/internal/switchsim"
)

// Stack is a complete in-process deployment of the snvs system over real
// TCP sockets: OVSDB server, behavioral switch with p4rt, and the Nerpa
// controller.
type Stack struct {
	DB     *ovsdb.Database
	DBC    *ovsdb.Client
	Switch *switchsim.Switch
	Fabric *switchsim.Fabric
	Ctrl   *core.Controller
	// OVSDBAddr is the management-plane server's listen address, for
	// experiments that drive load over additional client connections.
	OVSDBAddr string

	ovsdbSrv *ovsdb.Server
	closers  []func()
}

// StartStack boots the full snvs deployment, uninstrumented.
func StartStack() (*Stack, error) { return StartStackObs(nil) }

// StartStackObs boots the full snvs deployment with every plane wired to
// the observer's registry and tracer (nil behaves like StartStack).
func StartStackObs(o *obs.Observer) (*Stack, error) { return StartStackConfig(StackConfig{Obs: o}) }

// StackConfig selects optional stack features beyond the defaults.
type StackConfig struct {
	Obs *obs.Observer
	// Rules overrides the control-plane program (default snvs.Rules) —
	// profiler experiments append deliberately expensive rules to it.
	Rules string
	// OnDelta passes through to core.Config: the post-push output-delta
	// tap the subscription fan-out attaches to.
	OnDelta func(txn uint64, delta engine.Delta)
}

// StartStackConfig boots the full snvs deployment with the given
// feature selection.
func StartStackConfig(cfg StackConfig) (*Stack, error) {
	o := cfg.Obs
	schema, err := snvs.Schema()
	if err != nil {
		return nil, err
	}
	s := &Stack{DB: ovsdb.NewDatabase(schema)}
	s.DB.SetObs(o)
	fail := func(err error) (*Stack, error) {
		s.Close()
		return nil, err
	}
	s.ovsdbSrv = ovsdb.NewServer(s.DB)
	ovsdbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go s.ovsdbSrv.Serve(ovsdbLn)
	s.OVSDBAddr = ovsdbLn.Addr().String()
	s.closers = append(s.closers, s.ovsdbSrv.Close)

	s.Switch, err = switchsim.New("snvs0", switchsim.Config{Program: snvs.Pipeline()})
	if err != nil {
		return fail(err)
	}
	s.Switch.SetObs(o)
	p4Ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go s.Switch.Serve(p4Ln)
	s.closers = append(s.closers, s.Switch.Close)

	s.Fabric = switchsim.NewFabric()
	if err := s.Fabric.AddSwitch(s.Switch); err != nil {
		return fail(err)
	}

	s.DBC, err = ovsdb.Dial(ovsdbLn.Addr().String())
	if err != nil {
		return fail(err)
	}
	s.closers = append(s.closers, func() { s.DBC.Close() })
	p4c, err := p4rt.Dial(p4Ln.Addr().String())
	if err != nil {
		return fail(err)
	}
	s.closers = append(s.closers, func() { p4c.Close() })
	p4c.SetObs(o, "snvs0")

	rules := cfg.Rules
	if rules == "" {
		rules = snvs.Rules
	}
	s.Ctrl, err = core.New(core.Config{
		Rules: rules, Database: "snvs", Obs: o, OnDelta: cfg.OnDelta,
	}, s.DBC, p4c)
	if err != nil {
		return fail(err)
	}
	s.closers = append(s.closers, s.Ctrl.Stop)
	return s, nil
}

// Close tears the deployment down.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Transact runs OVSDB operations, failing on per-op errors.
func (s *Stack) Transact(ops ...ovsdb.Operation) error {
	_, err := s.DBC.TransactErr("snvs", ops...)
	return err
}

// WaitEntries polls until the data-plane table holds want entries.
func (s *Stack) WaitEntries(table string, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := s.Ctrl.Err(); err != nil {
			return err
		}
		if s.Switch.Runtime().EntryCount(table) == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: table %s has %d entries, want %d",
				table, s.Switch.Runtime().EntryCount(table), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// heapAlloc returns live heap bytes after a forced GC.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
