package p4

import (
	"reflect"
	"testing"
)

// FuzzParseProgram asserts the P4 parser never panics.
func FuzzParseProgram(f *testing.F) {
	f.Add(miniP4)
	f.Add("header h { bit<8> f; }")
	f.Add("control Ingress { apply { } }")
	f.Add("parser { state start { transition select(h.f) { 1: accept; } } }")
	f.Add("}{}{}{")
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseProgram("fuzz", src)
	})
}

// FuzzProcess holds the lowered pipeline to the reference walker on
// arbitrary frames: the mini program (ternary key, a state that extracts
// nothing) and the test switch (VLAN and IPv4 parsing, LPM and ternary
// tables, digests, flooding).
func FuzzProcess(f *testing.F) {
	prog, err := ParseProgram("fuzz", miniP4)
	if err != nil {
		f.Fatal(err)
	}
	mini, err := NewRuntime(prog)
	if err != nil {
		f.Fatal(err)
	}
	if err := mini.InsertEntry("t", Entry{
		Matches: []FieldMatch{{Value: 0xbb}, {Mask: 0xfff, Value: 0}},
		Action:  "fwd", Params: []uint64{4},
	}); err != nil {
		f.Fatal(err)
	}
	sw, err := NewRuntime(testProgram())
	if err != nil {
		f.Fatal(err)
	}
	sw.SetMulticastGroup(1, []uint16{1, 2, 3})
	for table, e := range map[string]Entry{
		"vlan_assign": {Matches: []FieldMatch{{Value: 2}}, Action: "use_tag_vlan"},
		"learned_src": {Matches: []FieldMatch{{Value: 1}, {Value: 0xaa}}, Action: "nop"},
		"fwd":         {Matches: []FieldMatch{{Value: 1}, {Value: 0xbb}}, Action: "forward", Params: []uint64{3}},
		"routes":      {Matches: []FieldMatch{{Value: 0x0a000000, PrefixLen: 8}}, Action: "route", Params: []uint64{2}},
		"acl":         {Matches: []FieldMatch{{Value: 0x0a000001, Mask: 0xffffffff}, {Wildcard: true}}, Action: "acl_drop"},
	} {
		if err := sw.InsertEntry(table, e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	frame := make([]byte, 18)
	frame[12] = 0x81
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rt := range []*Runtime{mini, sw} {
			for port := uint16(1); port <= 2; port++ {
				want, err := ReferenceProcess(rt, port, data)
				if err != nil {
					t.Fatalf("walker: %v", err)
				}
				got, err := rt.Process(port, data)
				if err != nil {
					t.Fatalf("Process returned an error: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s port %d:\nplan   %+v\nwalker %+v", rt.Program().Name, port, got, want)
				}
			}
		}
	})
}
