package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/ovsdb"
)

// The preloaded network, identical for every workload so table sizes and
// the forwarding path are the same everywhere.
const (
	preloadPorts = 1000 // access ports 1..preloadPorts
	accessVlans  = 10   // VLANs carrying access ports
	trunkVlans   = 16   // VLANs a trunk port carries (superset of the access VLANs)
	database     = "snvs"
)

// portSpec is one Port row. Trunks is nil for access ports.
type portSpec struct {
	Num    uint16
	Name   string
	Vlan   uint16
	Trunks []uint16
}

func (p portSpec) access() bool { return p.Trunks == nil }

// row renders the spec as the OVSDB column values.
func (p portSpec) row() map[string]ovsdb.Value {
	if p.access() {
		return map[string]ovsdb.Value{
			"name": p.Name, "port_num": int64(p.Num), "vlan_mode": "access", "tag": int64(p.Vlan),
		}
	}
	atoms := make([]ovsdb.Atom, len(p.Trunks))
	for i, v := range p.Trunks {
		atoms[i] = int64(v)
	}
	return map[string]ovsdb.Value{
		"name": p.Name, "port_num": int64(p.Num), "vlan_mode": "trunk", "trunks": ovsdb.NewSet(atoms...),
	}
}

// staticMAC is a StaticMac row: a host the forwarding generator can
// address without any learning having happened.
type staticMAC struct {
	MAC  uint64
	Vlan uint16
	Port uint16
}

func (m staticMAC) row() map[string]ovsdb.Value {
	return map[string]ovsdb.Value{"mac": int64(m.MAC), "vlan": int64(m.Vlan), "port": int64(m.Port)}
}

// network is the seed's fixed part: VLAN ids, the preloaded ports and
// one static host per port.
type network struct {
	seed   int64
	vlans  []uint16 // trunkVlans ids; the first accessVlans carry access ports
	ports  []portSpec
	hosts  []staticMAC
	byVlan map[uint16][]int // VLAN → indexes into hosts
}

// mix40 is a bijection on 40-bit values (an odd multiplier modulo 2^40),
// so MACs drawn from a counter never collide.
func mix40(i, off uint64) uint64 {
	return (i*0x9E3779B97F4A7C15 + off) & (1<<40 - 1)
}

func newNetwork(seed int64) *network {
	rng := rand.New(rand.NewSource(seed))
	n := &network{seed: seed, byVlan: make(map[uint16][]int)}
	for _, v := range rng.Perm(4000)[:trunkVlans] {
		n.vlans = append(n.vlans, uint16(v+2))
	}
	off := uint64(rng.Int63())
	// Every access VLAN gets the same number of ports, so flood-group
	// sizes (and with them per-op cost) do not vary with the seed; which
	// ports share a VLAN does.
	shuffle := rng.Perm(preloadPorts)
	for i := 1; i <= preloadPorts; i++ {
		vlan := n.vlans[shuffle[i-1]%accessVlans]
		n.ports = append(n.ports, portSpec{
			Num: uint16(i), Name: fmt.Sprintf("p%d-%04x", i, rng.Intn(1<<16)), Vlan: vlan,
		})
		n.hosts = append(n.hosts, staticMAC{MAC: 0x02<<40 | mix40(uint64(i), off), Vlan: vlan, Port: uint16(i)})
		n.byVlan[vlan] = append(n.byVlan[vlan], i-1)
	}
	return n
}

// --- operations -------------------------------------------------------

type opKind uint8

const (
	opInsert opKind = iota // one transaction inserting Ports
	opDelete               // one transaction deleting Ports
	opLearn                // one frame from a never-seen source MAC
)

// opSpec is one generated operation, before it is issued.
type opSpec struct {
	Kind  opKind
	Ports []portSpec // opInsert/opDelete
	MAC   uint64     // opLearn: source MAC
	Dst   uint64     // opLearn: a known destination in the same VLAN
	In    portSpec   // opLearn: ingress port
}

// key is what the sink recognises the op by: the in_vlan entry of the
// op's first (always access) port, or the smac entry of the learnt MAC.
func (o *opSpec) key() uint64 {
	switch o.Kind {
	case opInsert:
		return portKey(o.Ports[0].Num, true)
	case opDelete:
		return portKey(o.Ports[0].Num, false)
	}
	return o.MAC
}

// portKey and MAC keys share one space: MACs are below 2^48.
func portKey(port uint16, insert bool) uint64 {
	k := 1<<62 | uint64(port)<<1
	if insert {
		k |= 1
	}
	return k
}

// transact renders the op as OVSDB operations.
func (o *opSpec) transact() []ovsdb.Operation {
	ops := make([]ovsdb.Operation, len(o.Ports))
	for i, p := range o.Ports {
		if o.Kind == opInsert {
			ops[i] = ovsdb.OpInsert("Port", p.row())
		} else {
			ops[i] = ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", p.Name))
		}
	}
	return ops
}

// frame renders a learn op (or any src→dst pair) as a minimum-size
// untagged Ethernet frame.
func frame(dst, src uint64) []byte {
	b := make([]byte, 60)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], dst)
	copy(b[0:6], tmp[2:])
	binary.BigEndian.PutUint64(tmp[:], src)
	copy(b[6:12], tmp[2:])
	b[12], b[13] = 0x08, 0x00
	return b
}

func frameMACs(b []byte) (dst, src uint64) {
	var tmp [8]byte
	copy(tmp[2:], b[0:6])
	dst = binary.BigEndian.Uint64(tmp[:])
	copy(tmp[2:], b[6:12])
	src = binary.BigEndian.Uint64(tmp[:])
	return dst, src
}

// --- port churn streams -----------------------------------------------

// slot is a fixed range of port numbers that one client inserts and
// deletes as a unit. last is the most recent op on the slot: the next op
// on it is issued only after last reached the sink, so a coalesced batch
// never holds an insert and a delete that cancel (which would leave the
// op without any data-plane write to observe).
type slot struct {
	base  uint16
	ports []portSpec
	last  *op
}

// portStream is one client's deterministic op sequence: alternately
// insert the oldest free slot and delete the oldest live one.
type portStream struct {
	rng        *rand.Rand
	net        *network
	batch      int    // ports per op
	trunkEvery int    // every n-th port of an op is a trunk (0 = none)
	vlan       uint16 // all access ports join this VLAN (0 = seeded choice)
	free, live []*slot
	n, serial  int
}

// newPortStream gives client its own slots above the preloaded ports and
// every other client's.
func newPortStream(net *network, client, slots, batch, trunkEvery int, vlan uint16) *portStream {
	s := &portStream{
		rng: rand.New(rand.NewSource(net.seed*31 + int64(client) + 1)),
		net: net, batch: batch, trunkEvery: trunkEvery, vlan: vlan,
	}
	for i := 0; i < slots; i++ {
		s.free = append(s.free, &slot{base: uint16(preloadPorts + 1 + (client*slots+i)*batch), last: sunkOp})
	}
	return s
}

// clientStream builds client's stream for the workload, and the inserts
// that make half of its slots live before the first measured op.
func (w *workload) clientStream(nw *network, client int) (*portStream, []opSpec) {
	s := newPortStream(nw, client, w.slots, w.batch, w.trunkEvery, w.churnVlan(nw))
	prefill := make([]opSpec, w.slots/2)
	for i := range prefill {
		prefill[i], _ = s.insert()
	}
	return s, prefill
}

// insert fills the oldest free slot with freshly drawn ports.
func (s *portStream) insert() (opSpec, *slot) {
	sl := s.free[0]
	s.free = s.free[1:]
	s.live = append(s.live, sl)
	sl.ports = make([]portSpec, s.batch)
	for j := range sl.ports {
		s.serial++
		p := portSpec{Num: sl.base + uint16(j), Name: fmt.Sprintf("d%d-%d-%04x", sl.base+uint16(j), s.serial, s.rng.Intn(1<<16))}
		if s.trunkEvery > 0 && j%s.trunkEvery == s.trunkEvery-1 {
			p.Trunks = s.net.vlans
		} else if p.Vlan = s.vlan; p.Vlan == 0 {
			p.Vlan = s.net.vlans[s.rng.Intn(accessVlans)]
		}
		sl.ports[j] = p
	}
	return opSpec{Kind: opInsert, Ports: sl.ports}, sl
}

func (s *portStream) delete() (opSpec, *slot) {
	sl := s.live[0]
	s.live = s.live[1:]
	s.free = append(s.free, sl)
	return opSpec{Kind: opDelete, Ports: sl.ports}, sl
}

// next alternates insert and delete.
func (s *portStream) next() (opSpec, *slot) {
	s.n++
	if s.n%2 == 1 {
		return s.insert()
	}
	return s.delete()
}

// livePorts lists what the stream currently has installed.
func (s *portStream) livePorts() []portSpec {
	var out []portSpec
	for _, sl := range s.live {
		out = append(out, sl.ports...)
	}
	return out
}

// --- learn stream -----------------------------------------------------

// learnStream draws frames from never-seen source MACs on random
// preloaded ports, addressed to a static host of the same VLAN so the
// frame is forwarded to one port instead of flooded to a hundred.
type learnStream struct {
	rng     *rand.Rand
	net     *network
	off     uint64
	n       uint64
	learned []staticMAC
}

func newLearnStream(net *network) *learnStream {
	rng := rand.New(rand.NewSource(net.seed*31 + 7))
	return &learnStream{rng: rng, net: net, off: uint64(rng.Int63())}
}

func (s *learnStream) next() opSpec {
	s.n++
	in := s.net.ports[s.rng.Intn(len(s.net.ports))]
	peers := s.net.byVlan[in.Vlan]
	o := opSpec{
		Kind: opLearn, In: in,
		MAC: 0x06<<40 | mix40(s.n, s.off),
		Dst: s.net.hosts[peers[s.rng.Intn(len(peers))]].MAC,
	}
	s.learned = append(s.learned, staticMAC{MAC: o.MAC, Vlan: in.Vlan, Port: in.Num})
	return o
}

// --- op-stream identity -----------------------------------------------

// streamHash folds the first n ops of every stream a workload would
// issue for this seed into one number: equal seeds must give equal
// hashes whatever the timing of the run.
func streamHash(w *workload, seed int64, n int) uint64 {
	net := newNetwork(seed)
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, p := range net.ports {
		put(uint64(p.Num), uint64(p.Vlan))
		h.Write([]byte(p.Name))
	}
	for _, m := range net.hosts {
		put(m.MAC)
	}
	if w.learn {
		ls := newLearnStream(net)
		for i := 0; i < n; i++ {
			o := ls.next()
			put(o.MAC, o.Dst, uint64(o.In.Num))
		}
		return h.Sum64()
	}
	for c := 0; c < w.clients; c++ {
		ps, _ := w.clientStream(net, c)
		for i := 0; i < n; i++ {
			o, _ := ps.next()
			put(uint64(o.Kind))
			for _, p := range o.Ports {
				put(uint64(p.Num), uint64(p.Vlan), uint64(len(p.Trunks)))
				h.Write([]byte(p.Name))
			}
		}
	}
	return h.Sum64()
}
