package p4rt

import (
	"strconv"

	"repro/internal/p4"
	"repro/internal/wirejson"
)

// The write and digest messages are the two a steady-state controller
// exchanges with a switch for every change, so they are encoded and
// decoded by hand (wirejson) instead of by reflection. The bytes are what
// json.Marshal makes of the same values, and the decoders accept what
// json.Unmarshal accepts: wire_test.go holds both to that.

// updateList is the legacy bare-array form of the write params.
type updateList []Update

func (us updateList) AppendJSON(dst []byte) ([]byte, error) {
	if us == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range us {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendUpdate(dst, &us[i])
	}
	return append(dst, ']'), nil
}

// AppendJSON renders the request as json.Marshal does.
func (r WriteRequest) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	if r.Txn != 0 {
		dst = strconv.AppendUint(append(dst, `"txn":`...), r.Txn, 10)
		dst = append(dst, ',')
	}
	dst, _ = updateList(r.Updates).AppendJSON(append(dst, `"updates":`...))
	return append(dst, '}'), nil
}

func appendUpdate(dst []byte, u *Update) []byte {
	dst = wirejson.AppendString(append(dst, `{"type":`...), u.Type)
	if e := u.Entry; e != nil {
		dst = wirejson.AppendString(append(dst, `,"entry":{"table":`...), e.Table)
		dst = append(dst, `,"matches":`...)
		if e.Matches == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i := range e.Matches {
				if i > 0 {
					dst = append(dst, ',')
				}
				m := &e.Matches[i]
				dst = strconv.AppendUint(append(dst, `{"Value":`...), m.Value, 10)
				dst = strconv.AppendUint(append(dst, `,"Mask":`...), m.Mask, 10)
				dst = strconv.AppendInt(append(dst, `,"PrefixLen":`...), int64(m.PrefixLen), 10)
				dst = strconv.AppendBool(append(dst, `,"Wildcard":`...), m.Wildcard)
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
		if e.Priority != 0 {
			dst = strconv.AppendInt(append(dst, `,"priority":`...), int64(e.Priority), 10)
		}
		dst = wirejson.AppendString(append(dst, `,"action":`...), e.Action)
		if len(e.Params) > 0 {
			dst = appendUints(append(dst, `,"params":`...), e.Params)
		}
		dst = append(dst, '}')
	}
	if g := u.Multicast; g != nil {
		dst = strconv.AppendUint(append(dst, `,"multicast":{"group":`...), uint64(g.Group), 10)
		dst = appendUints(append(dst, `,"ports":`...), g.Ports)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

func appendUints[T uint16 | uint64](dst []byte, vs []T) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(v), 10)
	}
	return append(dst, ']')
}

// AppendJSON renders the digest list as json.Marshal does.
func (dl DigestList) AppendJSON(dst []byte) ([]byte, error) {
	dst = wirejson.AppendString(append(dst, `{"digest":`...), dl.Digest)
	dst = strconv.AppendUint(append(dst, `,"list_id":`...), dl.ListID, 10)
	dst = append(dst, `,"messages":`...)
	if dl.Messages == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range dl.Messages {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendUints(dst, m)
		}
		dst = append(dst, ']')
	}
	if dl.Txn != 0 {
		dst = strconv.AppendUint(append(dst, `,"txn":`...), dl.Txn, 10)
	}
	return append(dst, '}'), nil
}

// parseWrite decodes the write params in either wire form: the legacy
// bare update array, or the WriteRequest object carrying the
// originating transaction. Nothing it returns aliases params.
func parseWrite(params []byte) (updates []Update, txn uint64, err error) {
	var w writeDecoder
	w.d.Init(params)
	if w.d.Kind() == '{' {
		var req WriteRequest
		w.d.Object()
		for k := w.d.Key(); k != nil; k = w.d.Key() {
			switch wirejson.Field(k, "txn", "updates") {
			case 0:
				wirejson.Uint(&w.d, &req.Txn)
			case 1:
				wirejson.Slice(&w.d, &req.Updates, w.update)
			default:
				w.d.Skip()
			}
		}
		updates, txn = req.Updates, req.Txn
	} else {
		wirejson.Slice(&w.d, &updates, w.update)
	}
	return updates, txn, w.d.End()
}

// writeDecoder decodes updates, sharing one string between consecutive
// entries that name the same table or action (a batch is mostly runs of
// one table).
type writeDecoder struct {
	d             wirejson.Dec
	table, action string
}

// shared stores the string form of b in *p, reusing *last if it is equal.
func shared(p, last *string, b []byte) {
	if string(b) != *last {
		*last = string(b)
	}
	*p = *last
}

func (w *writeDecoder) update(d *wirejson.Dec, u *Update) {
	if d.Null() || !d.Object() {
		return
	}
	for k := d.Key(); k != nil; k = d.Key() {
		switch wirejson.Field(k, "type", "entry", "multicast") {
		case 0:
			if b, ok := d.StringBytes(); ok {
				switch string(b) {
				case UpdateInsert:
					u.Type = UpdateInsert
				case UpdateModify:
					u.Type = UpdateModify
				case UpdateDelete:
					u.Type = UpdateDelete
				default:
					u.Type = string(b)
				}
			}
		case 1:
			if d.Null() {
				u.Entry = nil
			} else if d.Object() {
				if u.Entry == nil {
					u.Entry = new(TableEntry)
				}
				w.entry(d, u.Entry)
			}
		case 2:
			if d.Null() {
				u.Multicast = nil
			} else if d.Object() {
				if u.Multicast == nil {
					u.Multicast = new(MulticastGroup)
				}
				for k := d.Key(); k != nil; k = d.Key() {
					switch wirejson.Field(k, "group", "ports") {
					case 0:
						wirejson.Uint(d, &u.Multicast.Group)
					case 1:
						wirejson.Slice(d, &u.Multicast.Ports, wirejson.Uint[uint16])
					default:
						d.Skip()
					}
				}
			}
		default:
			d.Skip()
		}
	}
}

// entry decodes the members of a table entry whose '{' is consumed.
func (w *writeDecoder) entry(d *wirejson.Dec, e *TableEntry) {
	for k := d.Key(); k != nil; k = d.Key() {
		switch wirejson.Field(k, "table", "matches", "priority", "action", "params") {
		case 0:
			if b, ok := d.StringBytes(); ok {
				shared(&e.Table, &w.table, b)
			}
		case 1:
			wirejson.Slice(d, &e.Matches, fieldMatch)
		case 2:
			wirejson.Int(d, &e.Priority)
		case 3:
			if b, ok := d.StringBytes(); ok {
				shared(&e.Action, &w.action, b)
			}
		case 4:
			wirejson.Slice(d, &e.Params, wirejson.Uint[uint64])
		default:
			d.Skip()
		}
	}
}

func fieldMatch(d *wirejson.Dec, m *p4.FieldMatch) {
	if d.Null() || !d.Object() {
		return
	}
	for k := d.Key(); k != nil; k = d.Key() {
		switch wirejson.Field(k, "Value", "Mask", "PrefixLen", "Wildcard") {
		case 0:
			wirejson.Uint(d, &m.Value)
		case 1:
			wirejson.Uint(d, &m.Mask)
		case 2:
			wirejson.Int(d, &m.PrefixLen)
		case 3:
			d.Bool(&m.Wildcard)
		default:
			d.Skip()
		}
	}
}

// parseDigest decodes the digest notification's params.
func parseDigest(params []byte) (dl DigestList, err error) {
	var d wirejson.Dec
	d.Init(params)
	if !d.Null() && d.Object() {
		for k := d.Key(); k != nil; k = d.Key() {
			switch wirejson.Field(k, "digest", "list_id", "messages", "txn") {
			case 0:
				d.String(&dl.Digest)
			case 1:
				wirejson.Uint(&d, &dl.ListID)
			case 2:
				wirejson.Slice(&d, &dl.Messages, func(d *wirejson.Dec, m *[]uint64) {
					wirejson.Slice(d, m, wirejson.Uint[uint64])
				})
			case 3:
				wirejson.Uint(&d, &dl.Txn)
			default:
				d.Skip()
			}
		}
	}
	return dl, d.End()
}

// parseDigestAck decodes digest_ack's params, the acknowledged ListID,
// without allocating.
func parseDigestAck(params []byte) (listID uint64, err error) {
	var d wirejson.Dec
	d.Init(params)
	wirejson.Uint(&d, &listID)
	return listID, d.End()
}
