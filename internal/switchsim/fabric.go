package switchsim

import (
	"fmt"
	"sync"
)

// Fabric wires switches and hosts into a topology. A link connects a
// switch port either to another switch's port or to a host endpoint;
// frames emitted on a linked port are delivered synchronously to the peer.
// Links and hosts refer to switches by name, so a restarted switch
// (ReplaceSwitch) takes over its predecessor's links.
type Fabric struct {
	mu       sync.Mutex
	switches map[string]*Switch
	// links maps (switch, port) → peer.
	links map[endpoint]peer
	hosts map[string]*Host
}

type endpoint struct {
	sw   string
	port uint16
}

type peer struct {
	sw   string // switch name (empty for a host)
	port uint16
	host *Host
}

// Host is a simple traffic endpoint: it records received frames and can
// send into its attached switch port.
type Host struct {
	Name string

	fabric *Fabric
	sw     string
	port   uint16

	mu       sync.Mutex
	received [][]byte
}

// NewFabric creates an empty topology.
func NewFabric() *Fabric {
	return &Fabric{
		switches: make(map[string]*Switch),
		links:    make(map[endpoint]peer),
		hosts:    make(map[string]*Host),
	}
}

// AddSwitch registers a switch and installs its output handler.
func (f *Fabric) AddSwitch(sw *Switch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.switches[sw.Name()]; dup {
		return fmt.Errorf("switchsim: switch %q already in fabric", sw.Name())
	}
	f.switches[sw.Name()] = sw
	sw.SetOutputHandler(func(port uint16, data []byte) { f.deliver(sw.Name(), port, data) })
	return nil
}

// ReplaceSwitch puts sw in the place of the fabric's switch of the same
// name, keeping its links and hosts.
func (f *Fabric) ReplaceSwitch(sw *Switch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.switches[sw.Name()] == nil {
		return fmt.Errorf("switchsim: unknown switch %q", sw.Name())
	}
	f.switches[sw.Name()] = sw
	sw.SetOutputHandler(func(port uint16, data []byte) { f.deliver(sw.Name(), port, data) })
	return nil
}

// LinkSwitches connects two switch ports.
func (f *Fabric) LinkSwitches(a string, aPort uint16, b string, bPort uint16) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.switches[a] == nil || f.switches[b] == nil {
		return fmt.Errorf("switchsim: unknown switch in link %s-%s", a, b)
	}
	if err := f.checkFree(endpoint{a, aPort}); err != nil {
		return err
	}
	if err := f.checkFree(endpoint{b, bPort}); err != nil {
		return err
	}
	f.links[endpoint{a, aPort}] = peer{sw: b, port: bPort}
	f.links[endpoint{b, bPort}] = peer{sw: a, port: aPort}
	return nil
}

// AttachHost connects a named host to a switch port and returns it.
func (f *Fabric) AttachHost(name, sw string, port uint16) (*Host, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.switches[sw] == nil {
		return nil, fmt.Errorf("switchsim: unknown switch %q", sw)
	}
	if _, dup := f.hosts[name]; dup {
		return nil, fmt.Errorf("switchsim: host %q already attached", name)
	}
	if err := f.checkFree(endpoint{sw, port}); err != nil {
		return nil, err
	}
	h := &Host{Name: name, fabric: f, sw: sw, port: port}
	f.hosts[name] = h
	f.links[endpoint{sw, port}] = peer{host: h}
	return h, nil
}

// Unlink removes the link on a switch port (link failure injection).
func (f *Fabric) Unlink(sw string, port uint16) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.links[endpoint{sw, port}]; ok {
		delete(f.links, endpoint{sw, port})
		if p.host == nil {
			delete(f.links, endpoint{p.sw, p.port})
		}
	}
}

func (f *Fabric) checkFree(e endpoint) error {
	if _, used := f.links[e]; used {
		return fmt.Errorf("switchsim: port %d of %s already linked", e.port, e.sw)
	}
	return nil
}

// deliver routes a frame emitted by a switch port to its peer. Unlinked
// ports blackhole.
func (f *Fabric) deliver(sw string, port uint16, data []byte) {
	f.mu.Lock()
	p, ok := f.links[endpoint{sw, port}]
	next := f.switches[p.sw]
	f.mu.Unlock()
	if !ok {
		return
	}
	if p.host != nil {
		p.host.mu.Lock()
		p.host.received = append(p.host.received, append([]byte(nil), data...))
		p.host.mu.Unlock()
		return
	}
	// Frame copies cross links so switches never share buffers.
	next.Inject(p.port, append([]byte(nil), data...))
}

// Send injects a frame from the host into its switch port.
func (h *Host) Send(data []byte) error {
	h.fabric.mu.Lock()
	sw := h.fabric.switches[h.sw]
	h.fabric.mu.Unlock()
	return sw.Inject(h.port, data)
}

// Received drains and returns the frames the host has received.
func (h *Host) Received() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.received
	h.received = nil
	return out
}

// ReceivedCount returns the number of pending received frames without
// draining them.
func (h *Host) ReceivedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.received)
}
