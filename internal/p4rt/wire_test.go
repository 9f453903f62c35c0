package p4rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/p4"
)

// oracleWrite is the write handler's decode under encoding/json: the
// params are one WriteRequest object.
func oracleWrite(params []byte) (updates []Update, txn uint64, err error) {
	var req WriteRequest
	err = json.Unmarshal(params, &req)
	return req.Updates, req.Txn, err
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkWrite holds parseWrite to encoding/json on one params text, and
// the encoder to json.Marshal on what it decoded.
func checkWrite(t *testing.T, params []byte) {
	t.Helper()
	want, wantTxn, wantErr := oracleWrite(params)
	got, txn, err := parseWrite(params)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseWrite(%q) error = %v, encoding/json: %v", params, err, wantErr)
	}
	if err != nil {
		return
	}
	if txn != wantTxn || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseWrite(%q) = %+v txn %d, encoding/json: %+v txn %d", params, got, txn, want, wantTxn)
	}
	req := WriteRequest{Txn: txn, Updates: got}
	if text, _ := req.AppendJSON(nil); !bytes.Equal(text, mustMarshal(t, req)) {
		t.Fatalf("WriteRequest.AppendJSON = %s, json.Marshal: %s", text, mustMarshal(t, req))
	}
}

// checkDigestAck holds parseDigestAck to encoding/json.
func checkDigestAck(t *testing.T, params []byte) {
	t.Helper()
	var want uint64
	wantErr := json.Unmarshal(params, &want)
	got, err := parseDigestAck(params)
	if (err != nil) != (wantErr != nil) || err == nil && got != want {
		t.Fatalf("parseDigestAck(%q) = %d, %v; encoding/json: %d, %v", params, got, err, want, wantErr)
	}
}

func checkDigest(t *testing.T, params []byte) {
	t.Helper()
	var want DigestList
	wantErr := json.Unmarshal(params, &want)
	got, err := parseDigest(params)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseDigest(%q) error = %v, encoding/json: %v", params, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseDigest(%q) = %+v, encoding/json: %+v", params, got, want)
	}
	if text, _ := got.AppendJSON(nil); !bytes.Equal(text, mustMarshal(t, want)) {
		t.Fatalf("DigestList.AppendJSON = %s, json.Marshal: %s", text, mustMarshal(t, want))
	}
}

// updateLists are update arrays, each seeded both as a WriteRequest's
// updates and bare, the form the write RPC refuses.
var updateLists = []string{
	`[]`, ` [ ] `, `[null]`, `[{}]`,
	`[{"type":"insert","entry":{"table":"t","matches":[],"priority":-3,"action":"a<b>","params":[]}}]`,
	`[{"type":"modify","entry":{"table":"é","matches":null,"action":"","params":[18446744073709551615]}},{"type":"delete","entry":null,"multicast":{"group":65535,"ports":[]}}]`,
	`[{"type":"weird","multicast":{"group":1,"ports":null}},{"TYPE":"insert","Entry":{"TABLE":"t","Matches":[{"value":1,"MASK":2,"prefixlen":3,"wildcard":true}]}}]`,
	`[{"entry":{"table":"a","matches":[{"Value":1,"Mask":2},{"Value":3}]},"entry":{"action":"b","matches":[{"Mask":9}]}}]`,
	`[{"type":"insert","type":null,"entry":{"params":[1,2,3],"params":[null,7]},"unknown":[{"x":[1,{"y":null}]}]}]`,
	// Refused in either shape.
	`[`, `[{]`, `[{"type":1}]`, `[{"entry":[]}]`, `[{"entry":{"priority":1.5}}]`,
	`[{"entry":{"matches":[{"Value":-1}]}}]`, `[{"entry":{"matches":[{"Wildcard":0}]}}]`, `[{"multicast":{"group":65536}}]`,
	`[{"multicast":{"ports":[70000]}}]`, `[{"entry":{"params":[1e3]}}]`, `[7]`,
}

var writeSeeds = append([]string{
	`null`, `{}`, `{"txn":7}`, `{"updates":null,"txn":0}`,
	`{"txn":18446744073709551615,"updates":[{"type":"insert"}],"updates":[{"entry":{}}]}`, `{"Txn":1,"UPDATES":[]}`,
	// Refused by both.
	``, `{"txn":-1}`, `{"txn":1.0}`, `{"txn":"1"}`, `{"updates":[{"type":"insert"}]} x`, `"str"`, `7`, `{"updates":{}}`,
}, wrapUpdateLists()...)

func wrapUpdateLists() []string {
	var out []string
	for _, us := range updateLists {
		out = append(out, us, `{"txn":3,"updates":`+us+`}`)
	}
	return out
}

var digestSeeds = []string{
	`{"digest":"learn","list_id":1,"messages":[[3,187723572702975,10]]}`,
	`{"digest":"learn","list_id":18446744073709551615,"messages":[[1,2,3],[4,5,6]],"txn":99}`,
	`{}`, `null`, `{"messages":null}`, `{"messages":[]}`, `{"messages":[null,[]]}`, `{"DIGEST":"d","List_ID":2,"messages":[[1],[2,3]],"messages":[[null]]}`,
	``, `[]`, `{"list_id":-1}`, `{"messages":[1]}`, `{"messages":[["1"]]}`, `{"digest":1}`, `{"digest":"x"}}`,
	// digest_ack params, a bare ListID.
	`7`, ` 18446744073709551615 `, `0`, `18446744073709551616`, `-1`, `1.0`, `1e3`, `"1"`, `[1]`, `7 x`, `07`,
}

func TestWireDifferential(t *testing.T) {
	for _, s := range writeSeeds {
		checkWrite(t, []byte(s))
	}
	for _, s := range digestSeeds {
		checkDigest(t, []byte(s))
		checkDigestAck(t, []byte(s))
	}
	// Values the encoders see that no decode produces: nil slices inside.
	for _, us := range [][]Update{nil, {}, {{Type: "insert", Entry: &TableEntry{}}},
		{{Entry: &TableEntry{Matches: []p4.FieldMatch{{Value: 1, PrefixLen: -1, Wildcard: true}}, Priority: 7, Params: []uint64{0}}, Multicast: &MulticastGroup{}}}} {
		req := WriteRequest{Updates: us}
		if text, _ := req.AppendJSON(nil); !bytes.Equal(text, mustMarshal(t, req)) {
			t.Errorf("WriteRequest.AppendJSON = %s, json.Marshal: %s", text, mustMarshal(t, req))
		}
	}
	for _, dl := range []DigestList{{}, {Messages: [][]uint64{nil, {}}}, {Digest: "\"<", Txn: 1}} {
		if text, _ := dl.AppendJSON(nil); !bytes.Equal(text, mustMarshal(t, dl)) {
			t.Errorf("DigestList.AppendJSON = %s, json.Marshal: %s", text, mustMarshal(t, dl))
		}
	}
}

// TestFieldMatchWireForms: each match kind renders with Value and only
// the members it sets, both encoders render it alike, and both decoders
// read it, and the full form an older peer sends, to the same value.
func TestFieldMatchWireForms(t *testing.T) {
	for _, c := range []struct {
		kind    string
		m       p4.FieldMatch
		compact string
	}{
		{"exact", p4.FieldMatch{Value: 5}, `{"Value":5}`},
		{"lpm /0", p4.FieldMatch{}, `{"Value":0}`},
		{"lpm /24", p4.FieldMatch{Value: 0x0a000100, PrefixLen: 24}, `{"Value":167772416,"PrefixLen":24}`},
		{"ternary mask 0", p4.FieldMatch{}, `{"Value":0}`},
		{"ternary", p4.FieldMatch{Value: 0x10, Mask: 0xf0}, `{"Value":16,"Mask":240}`},
		{"optional wildcard", p4.FieldMatch{Wildcard: true}, `{"Value":0,"Wildcard":true}`},
		{"optional concrete", p4.FieldMatch{Value: 7}, `{"Value":7}`},
	} {
		us := []Update{InsertEntry(TableEntry{Table: "t", Matches: []p4.FieldMatch{c.m}, Action: "a"})}
		req := WriteRequest{Updates: us}
		want := `{"updates":[{"type":"insert","entry":{"table":"t","matches":[` + c.compact + `],"action":"a"}}]}`
		if text, _ := req.AppendJSON(nil); string(text) != want {
			t.Errorf("%s: AppendJSON = %s, want %s", c.kind, text, want)
		}
		if text := mustMarshal(t, req); string(text) != want {
			t.Errorf("%s: json.Marshal = %s, want %s", c.kind, text, want)
		}
		full := fmt.Sprintf(`{"Value":%d,"Mask":%d,"PrefixLen":%d,"Wildcard":%t}`, c.m.Value, c.m.Mask, c.m.PrefixLen, c.m.Wildcard)
		for _, form := range []string{want, strings.Replace(want, c.compact, full, 1)} {
			checkWrite(t, []byte(form))
			got, _, err := parseWrite([]byte(form))
			if err != nil || !reflect.DeepEqual(got, us) {
				t.Errorf("%s: parseWrite(%s) = %+v, %v; want %+v", c.kind, form, got, err, us)
			}
		}
	}
}

func FuzzWriteParams(f *testing.F) {
	for _, s := range writeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, params []byte) { checkWrite(t, params) })
}

func FuzzDigestParams(f *testing.F) {
	for _, s := range digestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, params []byte) {
		checkDigest(t, params)
		checkDigestAck(t, params)
	})
}

// TestWriteKeepsNoAliasIntoReadBuffer: the updates a device receives must
// not change when the connection's read buffer is overwritten by the next
// (larger) message.
func TestWriteKeepsNoAliasIntoReadBuffer(t *testing.T) {
	dev := &fakeDevice{info: &p4.P4Info{Program: "fake"}}
	srv := NewServer(dev)
	defer srv.Close()
	a, b := net.Pipe()
	defer b.Close()
	srv.ServeConn(a)

	first := []Update{InsertEntry(TableEntry{Table: "first_table", Action: "first_action",
		Matches: []p4.FieldMatch{{Value: 11, Mask: 12}}, Params: []uint64{13}}), SetMulticast(14, []uint16{15, 16})}
	second := []Update{InsertEntry(TableEntry{Table: strings.Repeat("S", 400), Action: strings.Repeat("A", 400)})}
	replies := json.NewDecoder(b)
	for i, us := range [][]Update{first, second} {
		req := mustMarshal(t, map[string]any{"method": "write", "params": WriteRequest{Updates: us}, "id": i})
		b.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := b.Write(req); err != nil {
			t.Fatal(err)
		}
		var reply struct{ Error any }
		if err := replies.Decode(&reply); err != nil || reply.Error != nil {
			t.Fatalf("write %d: reply %+v, %v", i, reply, err)
		}
	}
	dev.mu.Lock()
	defer dev.mu.Unlock()
	if len(dev.writes) != 2 || !reflect.DeepEqual(dev.writes[0], first) {
		t.Fatalf("first write, read back after the second = %+v, want %+v", dev.writes[0], first)
	}
}

// lastAck is a Device that keeps only the last acknowledged list.
type lastAck struct {
	Device
	last uint64
}

func (d *lastAck) AckDigest(listID uint64) { d.last = listID }

// TestDigestAckZeroAlloc: the server decodes a digest_ack and hands it
// to the device without allocating.
func TestDigestAckZeroAlloc(t *testing.T) {
	dev := &lastAck{}
	srv := NewServer(dev)
	defer srv.Close()
	params := []byte("18446744073709551615")
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := srv.handle(nil, "digest_ack", params); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("digest_ack allocates %v", n)
	}
	if dev.last != 1<<64-1 {
		t.Fatalf("device acked %d", dev.last)
	}
}
