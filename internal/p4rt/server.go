package p4rt

import (
	"encoding/json"

	"repro/internal/jsonrpc"
)

// Server exposes a Device over the p4rt protocol. All connected clients
// receive digest and packet-in notifications (the prototype has a single
// controller; primary/backup arbitration is out of scope). The endpoint
// — Serve, ListenAndServe, ServeConn, SetKeepalive, SetObs, Close — is
// the embedded jsonrpc.Server.
type Server struct {
	*jsonrpc.Server
	dev Device
}

// writeLimit bounds an accepted connection's write queue: a controller
// that stops reading its digests is failed (and redials) instead of
// growing the switch's memory.
const writeLimit = 16384

// NewServer creates a server for the device.
func NewServer(dev Device) *Server {
	s := &Server{dev: dev}
	h := jsonrpc.HandlerFunc(s.handle)
	s.Server = jsonrpc.NewServer(writeLimit, func(*jsonrpc.Conn) (jsonrpc.Handler, func()) {
		return h, nil
	})
	return s
}

// NotifyDigest pushes a digest list to every connected controller.
func (s *Server) NotifyDigest(dl DigestList) { s.Broadcast("digest", dl) }

// NotifyPacketIn pushes a packet-in to every connected controller.
func (s *Server) NotifyPacketIn(pi PacketIn) { s.Broadcast("packet_in", pi) }

// emptyObject is the reply of methods with nothing to return, boxed once.
var emptyObject any = json.RawMessage("{}")

func (s *Server) handle(_ *jsonrpc.Conn, method string, params json.RawMessage) (any, *jsonrpc.RPCError) {
	switch method {
	case "get_p4info":
		return s.dev.P4Info(), nil
	case "write":
		updates, txn, err := parseWrite(params)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		if td, ok := s.dev.(TxnDevice); ok && txn != 0 {
			err = td.WriteTxn(txn, updates)
		} else {
			err = s.dev.Write(updates)
		}
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "write failed", Details: err.Error()}
		}
		return emptyObject, nil
	case "read":
		var table string
		if err := json.Unmarshal(params, &table); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: "read expects a table name"}
		}
		entries, err := s.dev.ReadTable(table)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "read failed", Details: err.Error()}
		}
		return entries, nil
	case "packet_out":
		var po PacketOut
		if err := json.Unmarshal(params, &po); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		if err := s.dev.PacketOut(po.Port, po.Data); err != nil {
			return nil, &jsonrpc.RPCError{Code: "packet_out failed", Details: err.Error()}
		}
		return emptyObject, nil
	case "read_counters":
		var table string
		if err := json.Unmarshal(params, &table); err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: "read_counters expects a table name"}
		}
		cr, ok := s.dev.(CounterReader)
		if !ok {
			return nil, &jsonrpc.RPCError{Code: "unimplemented", Details: "device has no counters"}
		}
		c, ok := cr.Counters(table)
		if !ok {
			return nil, &jsonrpc.RPCError{Code: "read failed", Details: "unknown table " + table}
		}
		return c, nil
	case "digest_ack":
		listID, err := parseDigestAck(params)
		if err != nil {
			return nil, &jsonrpc.RPCError{Code: "bad params", Details: err.Error()}
		}
		s.dev.AckDigest(listID)
		return nil, nil
	default:
		return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
	}
}
