// Package p4rt implements a P4Runtime-style control API for programmable
// data planes: pipeline introspection (P4Info), table entry Write/Read,
// multicast group programming, and a bidirectional stream carrying digests
// (data plane → controller, with acknowledgements) and packet-out
// (controller → data plane).
//
// The original P4Runtime runs over gRPC; here the same message surface
// runs over the repository's JSON-RPC transport (the RPC substrate is not
// load-bearing for any of the paper's claims).
package p4rt

import (
	"repro/internal/p4"
)

// TableEntry is the wire form of one table entry.
type TableEntry struct {
	Table    string          `json:"table"`
	Matches  []p4.FieldMatch `json:"matches"`
	Priority int             `json:"priority,omitempty"`
	Action   string          `json:"action"`
	Params   []uint64        `json:"params,omitempty"`
}

// MulticastGroup is the wire form of a multicast group entry.
type MulticastGroup struct {
	Group uint16   `json:"group"`
	Ports []uint16 `json:"ports"`
}

// Update types.
const (
	UpdateInsert = "insert"
	UpdateModify = "modify"
	UpdateDelete = "delete"
)

// Update is one element of a Write request.
type Update struct {
	Type      string          `json:"type"`
	Entry     *TableEntry     `json:"entry,omitempty"`
	Multicast *MulticastGroup `json:"multicast,omitempty"`
}

// InsertEntry builds an insert update for a table entry.
func InsertEntry(e TableEntry) Update { return Update{Type: UpdateInsert, Entry: &e} }

// ModifyEntry builds a modify update for a table entry.
func ModifyEntry(e TableEntry) Update { return Update{Type: UpdateModify, Entry: &e} }

// DeleteEntry builds a delete update for a table entry.
func DeleteEntry(e TableEntry) Update { return Update{Type: UpdateDelete, Entry: &e} }

// SetMulticast builds an update installing a multicast group (empty ports
// deletes the group).
func SetMulticast(group uint16, ports []uint16) Update {
	return Update{Type: UpdateInsert, Multicast: &MulticastGroup{Group: group, Ports: ports}}
}

// DigestList is a batch of digest messages streamed to the controller.
type DigestList struct {
	Digest   string     `json:"digest"`
	ListID   uint64     `json:"list_id"`
	Messages [][]uint64 `json:"messages"`
	// Txn is the last management-plane transaction the switch had applied
	// when the digest was emitted (0 = unknown / none yet). It attributes
	// data-plane learning to the configuration generation it ran under.
	// Optional on the wire: decoders that predate it ignore the field.
	Txn uint64 `json:"txn,omitempty"`
}

// WriteRequest is the extended wire form of the write RPC, carrying the
// originating management-plane transaction alongside the updates. The
// legacy form is a bare JSON array of updates; servers accept both (the
// same backward-compatibility trick as the optional third element of the
// OVSDB update notification), and clients only emit the extended form
// when they have a transaction to attach.
type WriteRequest struct {
	Txn     uint64   `json:"txn,omitempty"`
	Updates []Update `json:"updates"`
}

// TxnDevice is optionally implemented by devices that can attribute a
// write to its originating management-plane transaction (switchsim does:
// it records the switch-applied trace stage). Servers fall back to Device.Write when it is absent or when
// the write carries no transaction.
type TxnDevice interface {
	WriteTxn(txn uint64, updates []Update) error
}

// PacketIn is a data-plane-to-controller packet notification.
type PacketIn struct {
	Port uint16 `json:"port"`
	Data []byte `json:"data"`
}

// PacketOut is a controller-to-data-plane packet injection.
type PacketOut struct {
	Port uint16 `json:"port"`
	Data []byte `json:"data"`
}

// CounterReader is optionally implemented by devices exposing per-table
// hit/miss counters (P4Runtime direct counters).
type CounterReader interface {
	Counters(table string) (p4.TableCounters, bool)
}

// Device is the data plane a Server exposes. switchsim.Switch implements
// it.
type Device interface {
	// P4Info describes the running pipeline.
	P4Info() *p4.P4Info
	// Write applies updates atomically: either all succeed or none are
	// applied.
	Write(updates []Update) error
	// ReadTable snapshots a table's entries.
	ReadTable(table string) ([]TableEntry, error)
	// PacketOut injects a packet into the pipeline's egress on a port.
	PacketOut(port uint16, data []byte) error
	// AckDigest acknowledges receipt of a digest list.
	AckDigest(listID uint64)
}
