package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// checkValue holds one JSON text to every guarantee the package makes
// about it.
func checkValue(t *testing.T, text []byte) {
	t.Helper()
	var d Dec
	d.Init(text)
	d.Skip()
	if ok := d.End() == nil; ok != json.Valid(text) {
		t.Fatalf("Skip accepts %q = %v, json.Valid = %v (%v)", text, ok, json.Valid(text), d.Err())
	}
	// The string reader against json.Unmarshal into a string: same texts
	// accepted, same value (U+FFFD for bad UTF-8 and lone surrogates,
	// null leaving the target alone).
	var got, want string
	wantStrErr := json.Unmarshal(text, &want)
	d.Init(text)
	d.String(&got)
	if err := d.End(); (err != nil) != (wantStrErr != nil) || err == nil && got != want {
		t.Fatalf("String(%q) = %q, %v; encoding/json: %q, %v", text, got, err, want, wantStrErr)
	}
	wantText, wantErr := json.Marshal(json.RawMessage(text))
	gotText, err := AppendCompact(nil, text)
	if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(gotText, wantText) {
		t.Fatalf("AppendCompact(%q) = %s, %v; json.Marshal: %s, %v", text, gotText, err, wantText, wantErr)
	}
	d.Init(text)
	if raw := d.Raw(); d.End() == nil && !bytes.Equal(raw, bytes.TrimSpace(text)) {
		t.Fatalf("Raw(%q) = %q", text, raw)
	}
	// The untyped reader against json.Unmarshal into an any: same texts
	// accepted (numbers out of float64's range refused), deeply equal value.
	var wantAny any
	wantAnyErr := json.Unmarshal(text, &wantAny)
	d.Init(text)
	gotAny := d.Any()
	if err := d.End(); (err != nil) != (wantAnyErr != nil) || err == nil && !reflect.DeepEqual(gotAny, wantAny) {
		t.Fatalf("Any(%q) = %#v, %v; encoding/json: %#v, %v", text, gotAny, err, wantAny, wantAnyErr)
	}
}

var valueSeeds = []string{
	`null`, `true`, `false`, `0`, `-0`, `12`, `-1.5e+3`, `1E400`, `0.1`, `1e-7`, `123456789012345678901234567890`,
	`""`, `"a"`, `"é"`, `"é\n\t\"\\\/\b\f\r"`, `"😀"`, `"\ud83d"`, `"\ud83dx"`, `"\ud83dA"`, `"\ude00\ud83d"`,
	"\"\xff\xfe\"", "\"a\xe2\x80\xa8b\"", `"<>&"`, "\"  \"",
	`[]`, `[ ]`, `{}`, `{ }`, ` [1, 2 ,3] `, `{"a":1,"a":2}`, `{"b":[{"c":null}],"a":{"":""}}`,
	`["set",[["uuid","7b1c"],["named-uuid","x"]]]`, "\t{\"k\" :\n[true , false]}\r\n",
	`-1e400`, `1e-400`, `[1,1e309]`, `{"a":{"b":[null,{}]},"A":1,"a":[]}`, `{"é":1,"é":2}`, `[[],{},"",0,false]`,
	// Malformed.
	``, ` `, `nul`, `tru`, `nulll`, `01`, `-`, `1.`, `.5`, `1e`, `1e+`, `+1`, `0x10`, `"`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"", "\"\n\"", `"\'"`,
	`[`, `]`, `[1`, `[1,`, `[1,]`, `[,1]`, `[1 2]`, `{`, `}`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{a:1}`, `{1:1}`, `{"a":1 "b":2}`, `{"a":1]`, `[1}`,
	`1 2`, `{} {}`, `[] x`, `nullx`, `"a"b`,
}

func TestValueDifferential(t *testing.T) {
	for _, s := range valueSeeds {
		checkValue(t, []byte(s))
	}
	deep := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	checkValue(t, []byte(deep))
	checkValue(t, []byte("["+deep+"]"))
	checkValue(t, []byte(strings.Repeat(`{"a":`, maxDepth+1)+"1"+strings.Repeat("}", maxDepth+1)))
}

func FuzzValue(f *testing.F) {
	for _, s := range valueSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) { checkValue(t, text) })
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", "q\"b\\", "\x00\x1f\x7f", "<script>&amp;", "é😀", "\xff\xc0\xaf", "  ", "a\xe2\x80", string(rune(0xFFFD))} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal: %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1e21, 1e-7, 123456789.125, float64(1 << 60), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, _ := json.Marshal(f)
		if got, err := AppendFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal: %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded", f)
		}
	}
}

// TestTypedQuirks pins the encoding/json behaviours the typed helpers
// reproduce: folded names, null as no-op on scalars, range checks, and
// slices decoded over their old contents.
func TestTypedQuirks(t *testing.T) {
	type pair struct {
		A uint16
		B []uint64
		C string
		D int
		E bool
		F int8
	}
	decode := func(text string, p *pair) error {
		var d Dec
		d.Init([]byte(text))
		if !d.Null() && d.Object() {
			for k := d.Key(); k != nil; k = d.Key() {
				switch Field(k, "A", "B", "C", "D", "E", "F") {
				case 0:
					Uint(&d, &p.A)
				case 1:
					Slice(&d, &p.B, Uint[uint64])
				case 2:
					d.String(&p.C)
				case 3:
					Int(&d, &p.D)
				case 4:
					d.Bool(&p.E)
				case 5:
					Int(&d, &p.F)
				default:
					d.Skip()
				}
			}
		}
		return d.End()
	}
	for _, text := range []string{
		`{"A":1,"B":[1,2,3],"C":"x","D":-4,"E":true}`,
		`{"a":65535,"b":[],"c":null,"d":null,"e":null,"unknown":{"A":7}}`,
		`{"A":65536}`, `{"A":-1}`, `{"A":-0}`, `{"D":-0}`, `{"A":1.0}`, `{"A":1e2}`, `{"D":9223372036854775808}`, `{"D":"1"}`,
		`{"B":[1,2,3],"B":[null,9]}`, `{"B":[1,2,3],"B":[7],"B":[null,null,null]}`, `{"B":null}`, `{"B":[18446744073709551616]}`,
		`{"A":3,"ſ":1}`, `{"C":"a","c":"b","C":null}`, `{"E":1}`, `{"B":{}}`, `{"F":127,"f":-128}`, `{"F":128}`, `{"F":-129}`, `{"F":null}`, `null`, `[]`, `{"A":1}x`,
	} {
		var want, got pair
		wantErr := json.Unmarshal([]byte(text), &want)
		err := decode(text, &got)
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: error = %v, encoding/json: %v", text, err, wantErr)
		} else if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json: %+v", text, got, want)
		}
	}
}
