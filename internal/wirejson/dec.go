// Package wirejson is the hand-written JSON codec behind the wire
// path's hot message shapes: a pull tokenizer that decodes and validates
// in the same pass, and append-style encoders whose output is
// byte-identical to encoding/json's. It implements all of JSON (escapes,
// whitespace, null, surrogate pairs, the nesting-depth cap), and where
// encoding/json has decode quirks that change the resulting value —
// case-folded field names, duplicate keys merging into the existing
// value, null leaving a scalar untouched — the helpers here reproduce
// them, so a typed decoder built on Dec accepts exactly what
// json.Unmarshal accepts and yields a deeply equal value.
package wirejson

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Dec is a pull tokenizer over one JSON text. The first error sticks:
// afterwards every method reports "nothing more" (false, nil, zero), so
// decoders check Err (or End) once at the end instead of per token.
type Dec struct {
	buf []byte
	pos int
	err error
	// open is set between consuming '[' or '{' and the first element.
	open    bool
	depth   int
	scratch []byte // unescaped form of the last escaped string
}

// Init points the decoder at data, keeping its scratch space.
func (d *Dec) Init(data []byte) {
	*d = Dec{buf: data, scratch: d.scratch[:0]}
}

// Err returns the first error met.
func (d *Dec) Err() error { return d.err }

// Fail records a decode error (a type mismatch found by a caller).
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("json: "+format+" at offset %d", append(args, d.pos)...)
	}
}

// End checks that only whitespace remains and returns the first error.
func (d *Dec) End() error {
	if d.ws(); d.err == nil && d.pos < len(d.buf) {
		d.Fail("trailing data")
	}
	return d.err
}

// ws skips whitespace and returns the next byte without consuming it
// (0 at the end of input).
func (d *Dec) ws() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// Kind reports what the next value is by its first byte: '{', '[', '"',
// 'n', 't', 'f', or '-'/digit for a number; 0 at the end of input.
func (d *Dec) Kind() byte {
	if d.err != nil {
		return 0
	}
	return d.ws()
}

// Null consumes a null if that is the next value.
func (d *Dec) Null() bool {
	if d.err != nil || d.ws() != 'n' {
		return false
	}
	d.lit("null")
	return d.err == nil
}

func (d *Dec) lit(s string) {
	if len(d.buf)-d.pos < len(s) || string(d.buf[d.pos:d.pos+len(s)]) != s {
		d.Fail("invalid literal")
		return
	}
	d.pos += len(s)
}

func (d *Dec) enter(c byte) bool {
	if d.err != nil {
		return false
	}
	if d.ws() != c {
		d.Fail("expected %q", c)
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.Fail("exceeded max depth")
		return false
	}
	d.pos++
	d.open = true
	return true
}

// next steps to the following element of the container closed by end,
// consuming the separator, or consumes end and reports false.
func (d *Dec) next(end byte) bool {
	if d.err != nil {
		return false
	}
	c := d.ws()
	switch {
	case c == end:
		d.pos++
		d.depth--
		d.open = false
		return false
	case d.open:
		d.open = false
		return true
	case c == ',':
		d.pos++
		return true
	}
	d.Fail("expected ',' or %q", end)
	return false
}

// Array consumes '['. Iterate with: if d.Array() { for d.Elem() { … } }.
func (d *Dec) Array() bool { return d.enter('[') }

// Elem reports whether another array element follows; at the end it
// consumes ']'.
func (d *Dec) Elem() bool {
	if !d.next(']') {
		return false
	}
	if d.ws() == ']' { // "[1,]"
		d.Fail("unexpected ']'")
		return false
	}
	return true
}

// Object consumes '{'. Iterate with:
// if d.Object() { for k := d.Key(); k != nil; k = d.Key() { … } }.
func (d *Dec) Object() bool { return d.enter('{') }

// Key returns the next member's unescaped name (valid until the next
// string is read) with its ':' consumed, or nil at the end of the
// object, where it consumes '}'.
func (d *Dec) Key() []byte {
	if !d.next('}') {
		return nil
	}
	d.ws()
	k := d.str()
	if d.err == nil && d.ws() != ':' {
		d.Fail("expected ':'")
	}
	if d.err != nil {
		return nil
	}
	d.pos++
	if k == nil {
		k = d.buf[d.pos:d.pos]
	}
	return k
}

// Field reports which of names the member name k denotes, the way
// encoding/json matches struct fields: exactly, else under Unicode case
// folding; -1 if none.
func Field(k []byte, names ...string) int {
	for i, n := range names {
		if string(k) == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(string(k), n) {
			return i
		}
	}
	return -1
}

// str reads a string token at pos (whitespace already skipped) and
// returns its contents: a sub-slice of the input if it is plain ASCII
// without escapes, else d.scratch. Invalid UTF-8 and unpaired surrogates
// become U+FFFD, as in encoding/json.
func (d *Dec) str() []byte {
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		d.Fail("expected string")
		return nil
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.buf[start : d.pos-1]
		case c == '\\' || c >= utf8.RuneSelf:
			return d.strSlow(start)
		case c < ' ':
			d.Fail("control character in string")
			return nil
		}
		d.pos++
	}
	d.Fail("unterminated string")
	return nil
}

func (d *Dec) strSlow(start int) []byte {
	out := append(d.scratch[:0], d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = out
			return out
		case c == '\\':
			if d.pos += 2; d.pos > len(d.buf) {
				d.Fail("unterminated string")
				return nil
			}
			switch e := d.buf[d.pos-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4()
				if utf16.IsSurrogate(r) {
					// A low surrogate escape right after completes the pair;
					// anything else leaves this one as U+FFFD.
					pair := rune(utf8.RuneError)
					if save := d.pos; d.pos+1 < len(d.buf) && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
						d.pos += 2
						if pair = utf16.DecodeRune(r, d.hex4()); pair == utf8.RuneError && d.err == nil {
							d.pos = save
						}
					}
					r = pair
				}
				out = utf8.AppendRune(out, r)
			default:
				d.Fail("invalid escape")
			}
			if d.err != nil {
				return nil
			}
		case c < ' ':
			d.Fail("control character in string")
			return nil
		default:
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += size
		}
	}
	d.Fail("unterminated string")
	return nil
}

func (d *Dec) hex4() rune {
	if len(d.buf)-d.pos < 4 {
		d.Fail("invalid \\u escape")
		return 0
	}
	var r rune
	for _, c := range d.buf[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.Fail("invalid \\u escape")
			return 0
		}
		r = r*16 + rune(c)
	}
	d.pos += 4
	return r
}

// StringBytes reads a string and returns its unescaped contents, which
// may alias the input and are valid until the next string is read. ok is
// false for null (left to the caller, which like encoding/json usually
// keeps the old value) and after an error.
func (d *Dec) StringBytes() (b []byte, ok bool) {
	if d.err != nil || d.Null() {
		return nil, false
	}
	d.ws()
	b = d.str()
	return b, d.err == nil
}

// String decodes a string into *p; null leaves *p alone.
func (d *Dec) String(p *string) {
	if b, ok := d.StringBytes(); ok {
		*p = string(b)
	}
}

// Bool decodes a boolean into *p; null leaves *p alone.
func (d *Dec) Bool(p *bool) {
	if d.err != nil || d.Null() {
		return
	}
	switch d.ws() {
	case 't':
		if d.lit("true"); d.err == nil {
			*p = true
		}
	case 'f':
		if d.lit("false"); d.err == nil {
			*p = false
		}
	default:
		d.Fail("expected boolean")
	}
}

// num scans a number token and reports whether it is a plain integer
// (no fraction or exponent).
func (d *Dec) num() (tok []byte, integer bool) {
	start := d.pos
	digits := func() bool {
		n := d.pos
		for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > n
	}
	at := func(c byte) bool { return d.pos < len(d.buf) && d.buf[d.pos] == c }
	if at('-') {
		d.pos++
	}
	if at('0') {
		d.pos++
	} else if !digits() {
		d.Fail("invalid number")
		return nil, false
	}
	integer = true
	if at('.') {
		d.pos++
		integer = false
		if !digits() {
			d.Fail("invalid number")
			return nil, false
		}
	}
	if at('e') || at('E') {
		d.pos++
		integer = false
		if at('+') || at('-') {
			d.pos++
		}
		if !digits() {
			d.Fail("invalid number")
			return nil, false
		}
	}
	return d.buf[start:d.pos], integer
}

// integer scans a number for an integer target: ok is false for null
// (which leaves the target alone) and after an error, among them a
// fraction or an exponent.
func (d *Dec) integer() (tok []byte, ok bool) {
	if d.err != nil || d.Null() {
		return nil, false
	}
	d.ws()
	tok, integer := d.num()
	if d.err == nil && !integer {
		d.Fail("number %s is not an integer", tok)
	}
	return tok, d.err == nil
}

// Uint decodes a non-negative integer into *p, failing on a fraction,
// exponent, sign or a value beyond T; null leaves *p alone.
func Uint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](d *Dec, p *T) {
	tok, ok := d.integer()
	if !ok {
		return
	}
	var v uint64
	fits := true
	for _, c := range tok {
		if fits = c != '-' && v <= (^uint64(0)-uint64(c-'0'))/10; !fits {
			break
		}
		v = v*10 + uint64(c-'0')
	}
	if !fits || v > uint64(^T(0)) {
		d.Fail("number %s does not fit the target", tok)
		return
	}
	*p = T(v)
}

// Int decodes an integer into *p, failing on a fraction, exponent or a
// value beyond T; null leaves *p alone.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](d *Dec, p *T) {
	if tok, ok := d.integer(); ok {
		v, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || int64(T(v)) != v {
			d.Fail("number %s does not fit the target", tok)
			return
		}
		*p = T(v)
	}
}

// Any decodes the next value the way json.Unmarshal decodes into an
// any: null is nil, and the rest are bool, float64, string, []any and
// map[string]any (a repeated key keeps its last value). A number beyond
// float64's range fails, as it does there.
func (d *Dec) Any() any {
	if d.err != nil {
		return nil
	}
	switch d.ws() {
	case '{':
		m := map[string]any{}
		if d.Object() {
			for k := d.Key(); k != nil; k = d.Key() {
				key := string(k)
				m[key] = d.Any()
			}
		}
		return m
	case '[':
		a := []any{}
		if d.Array() {
			for d.Elem() {
				a = append(a, d.Any())
			}
		}
		return a
	case '"':
		if b := d.str(); d.err == nil {
			return string(b)
		}
	case 'n':
		d.lit("null")
	case 't':
		d.lit("true")
		return true
	case 'f':
		d.lit("false")
		return false
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		tok, _ := d.num()
		if d.err != nil {
			return nil
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.Fail("number %s does not fit a float64", tok)
		}
		return f
	default:
		d.Fail("invalid value")
	}
	return nil
}

// Skip validates and discards the next value.
func (d *Dec) Skip() {
	if d.err != nil {
		return
	}
	switch c := d.ws(); c {
	case '{':
		if d.Object() {
			for d.Key() != nil {
				d.Skip()
			}
		}
	case '[':
		if d.Array() {
			for d.Elem() {
				d.Skip()
			}
		}
	case '"':
		d.str()
	case 'n':
		d.lit("null")
	case 't':
		d.lit("true")
	case 'f':
		d.lit("false")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		d.num()
	default:
		d.Fail("invalid value")
	}
}

// Raw validates the next value and returns its bytes, which alias the
// input.
func (d *Dec) Raw() []byte {
	d.ws()
	start := d.pos
	d.Skip()
	if d.err != nil {
		return nil
	}
	return d.buf[start:d.pos]
}

// Slice decodes a JSON array into *p with encoding/json's slice rules:
// null makes it nil, an empty array makes it empty and non-nil, and
// elements are decoded over whatever the backing array already holds.
func Slice[T any](d *Dec, p *[]T, elem func(*Dec, *T)) {
	if d.Null() {
		*p = nil
		return
	}
	if !d.Array() {
		return
	}
	s := *p
	i := 0
	for d.Elem() {
		if i >= cap(s) {
			var zero T
			s = append(s[:cap(s)], zero)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		elem(d, &s[i])
		i++
	}
	if s = s[:i]; i == 0 {
		s = []T{}
	}
	*p = s
}

// Parser is implemented by values that decode themselves from JSON
// text. data may be reused once ParseJSON returns, so it must keep no
// reference into it.
type Parser interface {
	ParseJSON(data []byte) error
}
