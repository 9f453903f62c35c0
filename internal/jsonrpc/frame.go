package jsonrpc

import (
	"errors"
	"io"

	"repro/internal/wirejson"
)

// frame is one message's top-level members as sub-slices of the read
// buffer: raw JSON values, nil when the member is absent. They stay
// valid until the framer is asked for the next message.
type frame [len(memberNames)][]byte

// The members a message can carry, indexing frame and memberNames.
const (
	mMethod = iota
	mParams
	mResult
	mError
	mID
)

var memberNames = [...]string{mMethod: "method", mParams: "params", mResult: "result", mError: "error", mID: "id"}

// framer splits a stream of concatenated JSON objects into messages and
// finds each one's top-level members in the same scan, resuming where it
// stopped when a message arrives in pieces. It accepts the messages a
// json.Decoder would (but for a bare null), checking every byte once:
// the scan itself holds the top-level object to JSON's grammar and every
// bracket to its partner, it runs a wirejson.Dec over the members that are
// cheap or that nobody decodes later (scalars, strings, id, error,
// unknown names), and it leaves the inside of a params or result
// container — the bulk of a message — to the one decoder that reads it.
type framer struct {
	r          io.Reader
	buf        []byte
	start, end int // unread input is buf[start:end]; a message begins at start

	// Scan state of the message at start; offsets are relative to it.
	pos      int    // next byte to scan (may overshoot end after a backslash); 0 between messages
	stack    []byte // the open brackets, '{' or '[', outermost first
	inString bool
	state    int // where the top-level object's grammar stands
	keyStart int // the current member's name, without its quotes…
	keyEnd   int
	valStart int // …and its value's first byte
	members  [len(memberNames)][2]int
	d        wirejson.Dec
}

// What the top-level object may hold next.
const (
	wantKeyOrEnd   = iota // just after '{'
	wantKey               // after ','
	wantColon             // in or after a member name
	wantValue             // after ':'
	inScalar              // in a number or literal
	wantCommaOrEnd        // in or after a string or container value, after a scalar
)

const (
	minReadBuf = 4096
	maxDepth   = 10000 // encoding/json's nesting limit
)

var (
	errNotObject = errors.New("jsonrpc: message is not a JSON object")
	errBadMethod = errors.New("jsonrpc: method is not a string")
	errSyntax    = errors.New("jsonrpc: malformed message")
)

// structural marks the bytes that end a number or literal (besides
// whitespace).
var structural = func() (t [256]bool) {
	for _, c := range `"{}[]:,` {
		t[c] = true
	}
	return t
}()

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// next returns the following message. At a clean end of input it returns
// io.EOF; inside a message, io.ErrUnexpectedEOF.
func (f *framer) next() (frame, error) {
	for {
		if fr, ok, err := f.scan(); ok || err != nil {
			return fr, err
		}
		if err := f.fill(); err != nil {
			if err == io.EOF && f.pos > 0 {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
	}
}

// fill reads more input, first reclaiming the consumed front of the
// buffer and doubling it when a single message fills it. Like
// json.Decoder's, the buffer never shrinks.
func (f *framer) fill() error {
	if f.start > 0 {
		f.end = copy(f.buf, f.buf[f.start:f.end])
		f.start = 0
	}
	if f.end == len(f.buf) {
		grown := make([]byte, max(2*len(f.buf), minReadBuf))
		copy(grown, f.buf)
		f.buf = grown
	}
	for tries := 0; tries < 100; tries++ {
		n, err := f.r.Read(f.buf[f.end:])
		f.end += n
		if n > 0 {
			return nil // a reader that also returned an error repeats it
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// scan advances over the unread input and reports whether it completed
// a message.
func (f *framer) scan() (fr frame, ok bool, err error) {
	if f.pos == 0 {
		for f.start < f.end && isSpace(f.buf[f.start]) {
			f.start++
		}
		if f.start == f.end {
			return frame{}, false, nil
		}
		if f.buf[f.start] != '{' {
			return frame{}, false, errNotObject
		}
		f.stack, f.inString, f.state = append(f.stack[:0], '{'), false, wantKeyOrEnd
		f.members = [len(memberNames)][2]int{}
		f.pos = 1
	}
	b := f.buf[f.start:f.end]
	i := f.pos
	for ; i < len(b) && err == nil; i++ {
		c := b[i]
		switch top := len(f.stack) == 1; {
		case f.inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				if f.inString = false; top && f.state == wantColon {
					f.keyEnd = i
				} else if top {
					err = f.endMember(b, i+1)
				}
			}
		case !top: // inside a member's value: strings and brackets only
			switch c {
			case '"':
				f.inString = true
			case '{', '[':
				if f.stack = append(f.stack, c); len(f.stack) > maxDepth {
					err = errSyntax
				}
			case '}', ']':
				if f.stack[len(f.stack)-1] != c-2 { // '{'+2 == '}', '['+2 == ']'
					err = errSyntax
				} else if f.stack = f.stack[:len(f.stack)-1]; len(f.stack) == 1 {
					err = f.endMember(b, i+1)
				}
			}
		case f.state == inScalar && !structural[c] && !isSpace(c):
		case f.state == inScalar:
			err = f.endMember(b, i)
			i-- // c is what follows the value
		case isSpace(c):
		case c == '"' && f.state <= wantKey:
			f.inString, f.keyStart, f.state = true, i+1, wantColon
		case c == ':' && f.state == wantColon:
			f.state = wantValue
		case c == '"' && f.state == wantValue:
			f.inString, f.valStart, f.state = true, i, wantCommaOrEnd
		case (c == '{' || c == '[') && f.state == wantValue:
			f.stack, f.valStart, f.state = append(f.stack, c), i, wantCommaOrEnd
		case !structural[c] && f.state == wantValue:
			f.valStart, f.state = i, inScalar
		case c == ',' && f.state == wantCommaOrEnd:
			f.state = wantKey
		case c == '}' && (f.state == wantCommaOrEnd || f.state == wantKeyOrEnd):
			for m, span := range f.members {
				if span[1] > 0 {
					fr[m] = b[span[0]:span[1]]
				}
			}
			f.start += i + 1
			f.pos = 0
			return fr, true, nil
		default:
			err = errSyntax
		}
	}
	f.pos = i
	return frame{}, false, err
}

// endMember checks the member whose value ends at end and records it if
// it is one of the five a message can carry. As in encoding/json, a
// repeated name overrides, except that a null method leaves an earlier
// one standing.
func (f *framer) endMember(b []byte, end int) error {
	f.state = wantCommaOrEnd
	key, val := b[f.keyStart:f.keyEnd], b[f.valStart:end]
	m := -1
	for i, name := range memberNames {
		if string(key) == name {
			m = i
			break
		}
	}
	if m < 0 {
		// Escaped or differently-cased spellings still name the member.
		f.d.Init(b[f.keyStart-1 : f.keyEnd+1])
		name, _ := f.d.StringBytes()
		if f.d.End() != nil {
			return errSyntax
		}
		m = wirejson.Field(name, memberNames[:]...)
	}
	if c := val[0]; m != mParams && m != mResult || c != '{' && c != '[' {
		f.d.Init(val)
		f.d.Skip()
		if f.d.End() != nil {
			return errSyntax
		}
	}
	switch {
	case m < 0:
	case m == mMethod && val[0] != '"':
		if val[0] != 'n' {
			return errBadMethod
		}
	default:
		f.members[m] = [2]int{f.valStart, end}
	}
	return nil
}
