// Package deploy stands up a complete deployment in one process: an
// OVSDB server, the behavioral switches of one or more device classes
// wired into one fabric, and the controller between them, over loopback
// TCP. The controller dials the same self-healing clients nerpa-controller
// does, so the database server or any switch can be killed and restarted
// on its address while the controller keeps running, and the controller
// itself can be restarted against the running switches.
package deploy

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/dl/engine"
	"repro/internal/obs"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/switchsim"
)

// DB names the OVSDB server in Kill, Restart and Addr.
const DB = "ovsdb"

// Redial backoff bounds of every controller connection: tight, so a
// restart is healed by the resync, not by waiting out the backoff.
const (
	backoffMin = time.Millisecond
	backoffMax = 20 * time.Millisecond
)

// Class is one device class: switches that all run Program. Each id
// names the switch in the fabric, the controller's device and its p4rt
// session's target.
type Class struct {
	// Name and PerDevice pass through to core.DeviceClass.
	Name      string
	PerDevice bool
	Program   *p4.Program
	IDs       []string
}

// Spec describes a deployment.
type Spec struct {
	// Schema is the management database's schema; its Name is the
	// database the controller manages.
	Schema  *ovsdb.DatabaseSchema
	Rules   string
	Classes []Class
	// Obs, when set, instruments every plane (nil: none).
	Obs *obs.Observer
	// OnDelta passes through to core.Config.
	OnDelta func(txn uint64, delta engine.Delta)
}

// Stack is a running deployment. Its methods are meant for one
// goroutine: Restart swaps the switch that Switch returns, and
// RestartController swaps Ctrl, MP and the clients Device returns.
type Stack struct {
	DB     *ovsdb.Database
	Fabric *switchsim.Fabric
	Ctrl   *core.Controller
	// MP is the controller's management-plane client; Transact commits
	// through it too.
	MP *ovsdb.ResilientClient

	spec     Spec
	procs    map[string]*proc
	switches map[string]*switchsim.Switch
	devices  map[string]*p4rt.ResilientClient
	ctrlStop func() // stops Ctrl and closes its clients; nil when stopped
	closers  []func()
}

// proc is one restartable server: its fixed address and, while it runs,
// the function that kills it.
type proc struct {
	addr  string
	start func(net.Listener) (kill func(), err error)
	kill  func()
}

// Start boots the deployment: the OVSDB server and each switch, then the
// controller over its resilient clients. On error everything started so
// far is torn down.
func Start(spec Spec) (*Stack, error) {
	s := &Stack{
		DB:       ovsdb.NewDatabase(spec.Schema),
		Fabric:   switchsim.NewFabric(),
		spec:     spec,
		procs:    map[string]*proc{},
		switches: map[string]*switchsim.Switch{},
	}
	s.DB.SetObs(spec.Obs)
	s.closers = append(s.closers, s.killAll, s.stopController)
	fail := func(err error) (*Stack, error) {
		s.Close()
		return nil, err
	}
	if err := s.boot(DB, func(ln net.Listener) (func(), error) {
		srv := ovsdb.NewServer(s.DB)
		go srv.Serve(ln)
		return srv.Close, nil
	}); err != nil {
		return fail(err)
	}
	for _, cls := range spec.Classes {
		for _, id := range cls.IDs {
			if _, dup := s.procs[id]; dup {
				return fail(fmt.Errorf("deploy: duplicate name %q", id))
			}
			if err := s.boot(id, s.switchStarter(id, cls.Program)); err != nil {
				return fail(err)
			}
		}
	}
	if err := s.startController(); err != nil {
		return fail(err)
	}
	return s, nil
}

// startController dials the OVSDB server and every switch with fresh
// resilient clients and starts a controller over them.
func (s *Stack) startController() error {
	var closers []func()
	stop := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	mp, err := ovsdb.DialResilient(ovsdb.ResilientConfig{
		Addr: s.Addr(DB), BackoffMin: backoffMin, BackoffMax: backoffMax, Obs: s.spec.Obs,
	})
	if err != nil {
		return err
	}
	closers = append(closers, func() { mp.Close() })
	devices := map[string]*p4rt.ResilientClient{}
	var classes []core.DeviceClass
	for _, cls := range s.spec.Classes {
		dc := core.DeviceClass{Name: cls.Name, PerDevice: cls.PerDevice}
		for _, id := range cls.IDs {
			dp, err := p4rt.DialResilient(p4rt.ResilientConfig{
				Addr: s.Addr(id), Target: id,
				BackoffMin: backoffMin, BackoffMax: backoffMax, Obs: s.spec.Obs,
			})
			if err != nil {
				stop()
				return err
			}
			closers = append(closers, func() { dp.Close() })
			devices[id] = dp
			dc.Devices = append(dc.Devices, core.Device{ID: id, DP: dp})
		}
		classes = append(classes, dc)
	}
	ctrl, err := core.NewWithClasses(core.Config{
		Rules: s.spec.Rules, Database: s.spec.Schema.Name, Obs: s.spec.Obs, OnDelta: s.spec.OnDelta,
	}, mp, classes)
	if err != nil {
		stop()
		return err
	}
	closers = append(closers, ctrl.Stop)
	s.MP, s.devices, s.Ctrl, s.ctrlStop = mp, devices, ctrl, stop
	return nil
}

// stopController stops the controller and closes its clients.
func (s *Stack) stopController() {
	if s.ctrlStop != nil {
		s.ctrlStop()
		s.ctrlStop = nil
	}
}

// RestartController stops the controller and closes its connections,
// then starts a fresh controller over fresh connections, as restarting
// the controller process would. The switches keep their tables: the new
// controller takes them over as it finds them.
func (s *Stack) RestartController() error {
	s.stopController()
	return s.startController()
}

// boot starts a server on a fresh loopback port and records it under name.
func (s *Stack) boot(name string, start func(net.Listener) (func(), error)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p := &proc{addr: ln.Addr().String(), start: start}
	s.procs[name] = p
	if p.kill, err = start(ln); err != nil {
		ln.Close()
	}
	return err
}

// switchStarter builds the start function of switch id: a fresh switch,
// empty tables, in the fabric in its predecessor's place.
func (s *Stack) switchStarter(id string, prog *p4.Program) func(net.Listener) (func(), error) {
	return func(ln net.Listener) (func(), error) {
		sw, err := switchsim.New(id, switchsim.Config{Program: prog})
		if err != nil {
			return nil, err
		}
		sw.SetObs(s.spec.Obs)
		if _, ok := s.switches[id]; ok {
			err = s.Fabric.ReplaceSwitch(sw)
		} else {
			err = s.Fabric.AddSwitch(sw)
		}
		if err != nil {
			return nil, err
		}
		s.switches[id] = sw
		go sw.Serve(ln)
		return sw.Close, nil
	}
}

// Addr returns the listen address of the OVSDB server (DB) or a switch.
func (s *Stack) Addr(name string) string { return s.procs[name].addr }

// Switch returns the current incarnation of switch id.
func (s *Stack) Switch(id string) *switchsim.Switch { return s.switches[id] }

// Device returns the controller's connection to switch id.
func (s *Stack) Device(id string) *p4rt.ResilientClient { return s.devices[id] }

// Kill stops the OVSDB server (DB) or a switch, dropping its
// connections; the address stays reserved for Restart. Killing a
// stopped server is a no-op.
func (s *Stack) Kill(name string) {
	if p := s.procs[name]; p.kill != nil {
		p.kill()
		p.kill = nil
	}
}

// Restart kills the OVSDB server (DB) or a switch if it runs, and starts
// a fresh one on the same address. The database keeps its contents; a
// switch comes back with empty tables, as a rebooted device would.
func (s *Stack) Restart(name string) error {
	s.Kill(name)
	p := s.procs[name]
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", p.addr)
		if err == nil {
			if p.kill, err = p.start(ln); err != nil {
				ln.Close()
			}
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: rebinding %s: %w", p.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *Stack) killAll() {
	for name := range s.procs {
		s.Kill(name)
	}
}

// Close tears the deployment down in the reverse order of Start.
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Transact commits operations through the management client, failing
// on per-operation errors.
func (s *Stack) Transact(ops ...ovsdb.Operation) error {
	_, err := s.MP.TransactErr(s.spec.Schema.Name, ops...)
	return err
}

// WaitEntries polls until switch id's table holds want entries, failing
// early if the controller stops.
func (s *Stack) WaitEntries(id, table string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := s.Ctrl.Err(); err != nil {
			return err
		}
		n := s.Switch(id).Runtime().EntryCount(table)
		if n == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: %s.%s has %d entries, want %d", id, table, n, want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}
