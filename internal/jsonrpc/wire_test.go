package jsonrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wirejson"
)

// oracleMessage is the struct the read loop used to hand json.Decoder.
type oracleMessage struct {
	Method string           `json:"method,omitempty"`
	Params json.RawMessage  `json:"params,omitempty"`
	Result json.RawMessage  `json:"result,omitempty"`
	Error  json.RawMessage  `json:"error,omitempty"`
	ID     *json.RawMessage `json:"id,omitempty"`
}

// chunkReader hands out its data at most n bytes per Read.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// checkFrames holds the framer to json.Decoder on one stream: every
// message the decoder accepts is framed with the same members, and where
// the decoder stops — the end, a truncated message, anything that is not
// JSON, a method that is not a string — the framer stops too, once the
// params and result containers it leaves to their decoders are checked
// the way those decoders check them.
func checkFrames(t *testing.T, stream []byte, chunk int) {
	t.Helper()
	src := &chunkReader{data: stream, n: max(chunk, 1)}
	f := framer{r: src}
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var want oracleMessage
		wantErr := dec.Decode(&want)
		fr, err := f.next()
		for _, m := range []int{mParams, mResult} {
			var d wirejson.Dec
			d.Init(fr[m])
			if d.Skip(); err == nil && fr[m] != nil && d.End() != nil {
				err = d.Err()
			}
		}
		if wantErr != nil {
			if err == nil {
				t.Fatalf("stream %q: framed a message where json.Decoder fails with %v", stream, wantErr)
			}
			if wantErr == io.EOF && err != io.EOF {
				t.Fatalf("stream %q: clean end reported as %v", stream, err)
			}
			return
		}
		if err == errNotObject && reflect.DeepEqual(want, oracleMessage{}) {
			return // a bare null: json.Decoder reads it as an empty message, the framer refuses it
		}
		if err != nil {
			t.Fatalf("stream %q: framer fails with %v on a message json.Decoder accepts", stream, err)
		}
		var method string
		if fr[mMethod] != nil {
			var d wirejson.Dec
			d.Init(fr[mMethod])
			d.String(&method)
			if d.End() != nil {
				t.Fatalf("stream %q: method member %q", stream, fr[mMethod])
			}
		}
		var id []byte
		if want.ID != nil {
			id = *want.ID
		}
		if isNull(fr[mID]) {
			fr[mID] = nil // both mean "no id" to the read loop
		}
		for _, m := range []struct {
			name      string
			got, want []byte
		}{
			{"method", []byte(method), []byte(want.Method)},
			{"params", fr[mParams], want.Params}, {"result", fr[mResult], want.Result},
			{"error", fr[mError], want.Error}, {"id", fr[mID], id},
		} {
			if !bytes.Equal(m.got, m.want) || (m.got == nil) != (m.want == nil) && m.name != "method" {
				t.Fatalf("stream %q: %s = %q, json.Decoder: %q", stream, m.name, m.got, m.want)
			}
		}
	}
}

var frameSeeds = []string{
	`{"id":0,"method":"echo","params":["x"]}{"error":null,"id":0,"result":["x"]}`,
	`{"id":null,"method":"update","params":["m",{"Port":{"u":{"new":{"name":"p{1}"}}}},7]}` + "\n" + `{"method":"m","params":[],"id":null}`,
	` { "method" : "a\"}{" , "params" : { "k" : [ 1 , { "z" : "]" } ] } , "id" : 12 } ` + "\r\n\t" + `{"id":1,"result":"\\","error":null}`,
	`{"METHOD":"up","Params":[1],"id":3,"id":4,"extra":{"method":"inner"}}`,
	`{"method":"x","method":null,"params":null,"id":null,"id":5}{}{"id":"s","result":{}}`,
	`{"method":"x","params":[1,2`, `{"method":"x"}}`, `{"method":5,"id":1}`, `[1]`, `7 {"id":1}`, `{"id":1,"result":tru}`,
	`{"method":"é😀","params":" ","id":1e2}`, "{\"method\":\"a\x01\"}", `{"a":{"b":[{"c":"}"}]},"method":"deep"}`,
	`{"method" "x"}`, `null`, `{:1}`, `{"method":}`, `{"method":"x",}`, `{"id":1 "result":2}`,
	`{"id":1,"method":"echo","params":[]]`, `{"junk": !!garbage!!, "method":"echo","id":1,"params":[1]}`,
	`{"id":1,"method":"echo","params":[1,2}}`, `{"id":1x,"result":1}`, `{"id":1,"result":[1 2]}`, `{"a\q":1}`,
	`{"id":[1,"a"],"me\u0074hod":"m","x":{"y":[tru]}}`, `{"id":-0.5E+2,"error":{"error":"e"},"result":null}`, `{"method":"m" ,"params":1 }`,
}

func TestFrameDifferential(t *testing.T) {
	for _, s := range frameSeeds {
		for _, chunk := range []int{1, 2, 7, 4096} {
			checkFrames(t, []byte(s), chunk)
		}
	}
	// A message larger than the buffer, arriving in pieces, between two
	// small ones.
	big := `{"id":9,"method":"transact","params":["` + strings.Repeat("p", 3*minReadBuf) + `"]}`
	checkFrames(t, []byte(frameSeeds[0]+big+frameSeeds[0]), 1000)
}

func FuzzFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s), 3)
	}
	f.Fuzz(func(t *testing.T, stream []byte, chunk int) { checkFrames(t, stream, chunk%64) })
}

// TestEnvelopeBytes pins the envelopes to what json.Marshal made of the
// map[string]any this package used to build.
func TestEnvelopeBytes(t *testing.T) {
	id := json.RawMessage(` 7 `)
	for _, tc := range []struct {
		build func(*encBuf) error
		want  map[string]any
	}{
		{func(e *encBuf) error { return e.request(3, true, "m<", []any{"a", 1.5}) },
			map[string]any{"method": "m<", "params": []any{"a", 1.5}, "id": uint64(3)}},
		{func(e *encBuf) error { return e.request(0, false, "n", nil) },
			map[string]any{"method": "n", "params": []any{}, "id": nil}},
		{func(e *encBuf) error { return e.request(1, true, "raw", json.RawMessage(` [ "<" ] `)) },
			map[string]any{"method": "raw", "params": json.RawMessage(` [ "<" ] `), "id": uint64(1)}},
		{func(e *encBuf) error { return e.reply(id, map[string]int{"x": 1}, nil) },
			map[string]any{"id": &id, "result": map[string]int{"x": 1}, "error": nil}},
		{func(e *encBuf) error { return e.reply(id, "dropped", &RPCError{Code: "boom", Details: "why"}) },
			map[string]any{"id": &id, "result": nil, "error": &RPCError{Code: "boom", Details: "why"}}},
		{func(e *encBuf) error { return e.reply(id, nil, &RPCError{Code: "bare"}) },
			map[string]any{"id": &id, "result": nil, "error": &RPCError{Code: "bare"}}},
	} {
		e := getBuf()
		want, _ := json.Marshal(tc.want)
		if err := tc.build(e); err != nil || !bytes.Equal(e.b, want) {
			t.Errorf("envelope = %s, %v; json.Marshal: %s", e.b, err, want)
		}
		putBuf(e)
	}
	e := getBuf()
	defer putBuf(e)
	if err := e.reply(json.RawMessage(`tru`), nil, nil); err == nil {
		t.Errorf("reply with a malformed id succeeded: %s", e.b)
	}
}

// TestUnencodableResultStillReplies: a handler result that cannot be
// encoded used to be dropped, leaving the peer's Call waiting forever.
func TestUnencodableResultStillReplies(t *testing.T) {
	h := HandlerFunc(func(_ *Conn, method string, _ json.RawMessage) (any, *RPCError) {
		if method == "nan" {
			return math.NaN(), nil
		}
		return make(chan int), nil
	})
	ca, _ := pipePair(t, nil, h)
	for _, method := range []string{"nan", "chan"} {
		err := ca.CallTimeout(method, nil, nil, 5*time.Second)
		var rpcErr *RPCError
		if !errors.As(err, &rpcErr) || rpcErr.Code != "internal error" || rpcErr.Details == "" {
			t.Fatalf("%s: Call = %v, want RPCError internal error", method, err)
		}
	}
	var out string
	if err := ca.Call("nan", math.Inf(1), &out); err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("unencodable params: Call = %v", err)
	}
}

// TestCallAllocs bounds an echo round trip (both peers, over net.Pipe).
func TestCallAllocs(t *testing.T) {
	echo := HandlerFunc(func(_ *Conn, _ string, params json.RawMessage) (any, *RPCError) { return params, nil })
	ca, _ := pipePair(t, nil, echo)
	params := []string{strings.Repeat("x", 60)}
	var out json.RawMessage
	call := func() {
		if err := ca.Call("echo", params, &out); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if allocs := testing.AllocsPerRun(200, call); allocs > 16 {
		t.Errorf("echo round trip: %.1f allocations, want <= 16", allocs)
	}
	if want := `["` + params[0] + `"]`; string(out) != want {
		t.Errorf("echo = %s", out)
	}
}

// TestParamsDoNotOutliveHandle overwrites the read buffer with a larger
// second message and checks what the first handler call saw: the bytes it
// copied are intact, the slice it was handed is not.
func TestParamsDoNotOutliveHandle(t *testing.T) {
	type seen struct{ alias, copied []byte }
	calls := make(chan seen, 2)
	h := HandlerFunc(func(_ *Conn, _ string, params json.RawMessage) (any, *RPCError) {
		calls <- seen{params, bytes.Clone(params)}
		return nil, nil
	})
	a, b := net.Pipe()
	ca := NewConn(a, h)
	defer ca.Close()
	defer b.Close()
	first := `{"id":null,"method":"m","params":["first-message"]}`
	second := `{"id":null,"method":"m","params":["` + strings.Repeat("S", 2*len(first)) + `"]}`
	go func() {
		b.Write([]byte(first))
		b.Write([]byte(second))
	}()
	one := <-calls
	<-calls
	if string(one.copied) != `["first-message"]` {
		t.Fatalf("first params = %s", one.copied)
	}
	if bytes.Equal(one.alias, one.copied) {
		t.Errorf("params of the first message survived the second: the read buffer is not being reused")
	}
}

// TestMixedVersionPeer runs a Conn against a peer written the way this
// package used to be: json.Decoder, json.Encoder, map[string]any.
func TestMixedVersionPeer(t *testing.T) {
	a, b := net.Pipe()
	h := HandlerFunc(func(_ *Conn, method string, params json.RawMessage) (any, *RPCError) {
		if method != "double" {
			return nil, &RPCError{Code: "unknown method", Details: method}
		}
		var n []int
		if err := json.Unmarshal(params, &n); err != nil || len(n) != 1 {
			return nil, &RPCError{Code: "bad params"}
		}
		return map[string]int{"twice": 2 * n[0]}, nil
	})
	c := NewConn(a, h)
	defer c.Close()
	defer b.Close()

	dec, enc := json.NewDecoder(b), json.NewEncoder(b)
	dec.UseNumber()
	read := func() map[string]any {
		t.Helper()
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("old peer cannot read the stream: %v", err)
		}
		return m
	}
	// New → old: a request the old peer answers, then a notification.
	done := make(chan error, 1)
	var sum struct{ Sum int }
	go func() { done <- c.Call("add", []int{2, 3}, &sum) }()
	req := read()
	if req["method"] != "add" || req["id"] == nil {
		t.Fatalf("request = %v", req)
	}
	if err := enc.Encode(map[string]any{"id": req["id"], "result": map[string]any{"Sum": 5}, "error": nil}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil || sum.Sum != 5 {
		t.Fatalf("Call = %+v, %v", sum, err)
	}
	go c.Notify("note", nil)
	if n := read(); n["method"] != "note" || n["id"] != nil || len(n["params"].([]any)) != 0 {
		t.Fatalf("notification = %v", n)
	}
	// Old → new: a request, an error, and an indented one.
	go enc.Encode(map[string]any{"method": "double", "params": []int{21}, "id": "r1"})
	if r := read(); r["id"] != "r1" || r["error"] != nil || r["result"].(map[string]any)["twice"] != json.Number("42") {
		t.Fatalf("reply = %v", r)
	}
	go enc.Encode(map[string]any{"method": "nope", "params": []int{}, "id": 2})
	if r := read(); r["id"] != json.Number("2") || r["result"] != nil || r["error"].(map[string]any)["error"] != "unknown method" {
		t.Fatalf("error reply = %v", r)
	}
	enc.SetIndent(" ", "\t")
	go enc.Encode(map[string]any{"method": "double", "params": []int{4}, "id": []any{"x", 1}})
	if r := read(); r["result"].(map[string]any)["twice"] != json.Number("8") || len(r["id"].([]any)) != 2 {
		t.Fatalf("reply to an indented request = %v", r)
	}
}
