package jsonrpc

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/wirejson"
)

// encBuf is a pooled buffer: one message is built in it and it then
// serves as the connection's write queue (see send), or one reply is
// copied into it for the waiting Call. It carries the json.Encoder that
// appends payloads of types without an encoder of their own.
type encBuf struct {
	b   []byte
	enc *json.Encoder
}

func (e *encBuf) Write(p []byte) (int, error) {
	e.b = append(e.b, p...)
	return len(p), nil
}

// maxKeptBuf is the largest buffer worth holding on to between messages.
// It sits above the largest steady-state message measured on any path,
// so that message reuses a pooled buffer instead of regrowing one from
// a small one each time. The largest is the P4RT write of a
// bulk_reconfig op in the benchmark: 1.10 MB, which grows its buffer to
// a capacity of up to 1.20 MB (1.79 MB and 2.20 MB while every field
// match carried all four members). The OVSDB monitor update there is at
// most 91 KB, and a 2,000-port T1 run sends nothing above 3 KB.
const maxKeptBuf = 4 << 20

var bufPool = sync.Pool{New: func() any {
	e := new(encBuf)
	e.enc = json.NewEncoder(e)
	return e
}}

func getBuf() *encBuf { return bufPool.Get().(*encBuf) }

// putBuf recycles e; nothing may alias e.b afterwards.
func putBuf(e *encBuf) {
	if cap(e.b) <= maxKeptBuf {
		e.b = e.b[:0]
		bufPool.Put(e)
	}
}

// value appends v exactly as json.Marshal would render it.
func (e *encBuf) value(v any) (err error) {
	switch v := v.(type) {
	case nil:
		e.b = append(e.b, "null"...)
	case wirejson.Appender:
		e.b, err = v.AppendJSON(e.b)
	case json.RawMessage:
		e.b, err = wirejson.AppendCompact(e.b, v)
	default:
		if err = e.enc.Encode(v); err == nil {
			e.b = e.b[:len(e.b)-1] // Encode ends the value with a newline
		}
	}
	return err
}

// The envelopes below spell out what json.Marshal makes of the
// map[string]any this package used to build: members in sorted order.

// request appends a request, or with hasID false a notification.
func (e *encBuf) request(id uint64, hasID bool, method string, params any) error {
	e.b = append(e.b, `{"id":`...)
	if hasID {
		e.b = strconv.AppendUint(e.b, id, 10)
	} else {
		e.b = append(e.b, "null"...)
	}
	e.b = append(e.b, `,"method":`...)
	e.b = wirejson.AppendString(e.b, method)
	e.b = append(e.b, `,"params":`...)
	if params == nil {
		e.b = append(e.b, "[]"...)
	} else if err := e.value(params); err != nil {
		return err
	}
	e.b = append(e.b, '}')
	return nil
}

// reply appends the response to the request whose raw id is given.
func (e *encBuf) reply(id []byte, result any, rpcErr *RPCError) (err error) {
	e.b = append(e.b, `{"error":`...)
	if rpcErr == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, `{"error":`...)
		e.b = wirejson.AppendString(e.b, rpcErr.Code)
		if rpcErr.Details != "" {
			e.b = append(e.b, `,"details":`...)
			e.b = wirejson.AppendString(e.b, rpcErr.Details)
		}
		e.b = append(e.b, '}')
		result = nil
	}
	e.b = append(e.b, `,"id":`...)
	if e.b, err = wirejson.AppendCompact(e.b, id); err != nil {
		return err
	}
	e.b = append(e.b, `,"result":`...)
	if err = e.value(result); err != nil {
		return err
	}
	e.b = append(e.b, '}')
	return nil
}
