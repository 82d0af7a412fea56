package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pimnw/internal/host"
	"pimnw/internal/seq"
)

// pairDecoder reads request pairs in one pass over the body: each
// sequence letter goes from the read buffer straight into its base, with
// no intermediate string. The body is one JSON array of pair objects or a
// stream of them (NDJSON), decided by its first non-space byte. The
// decoder accepts exactly what encoding/json decodes into a wirePair:
// keys in any order and any case, unknown keys with any value, the last
// of duplicate keys winning, null leaving a field as it was, string
// escapes, and an id that is an integral number fitting an int. It holds
// the bufio.Reader's fixed buffer, so a sequence may span refills, and
// reads no byte past the pair it returns.
type pairDecoder struct {
	br     *bufio.Reader
	array  bool  // the body is one JSON array: elements are comma-separated
	n      int   // elements decoded so far
	err    error // sticky: the first error ends the stream
	raw    []byte
	key    []byte  // the current key's first bytes, in keyBuf
	keyBuf [3]byte // one byte past the longest field name
}

// maxDepth is encoding/json's nesting limit; the pair object is level 1.
const maxDepth = 10000

// jsonError carries a malformed body's error from deep in the scan to
// next, which returns it; nothing else panics with it.
type jsonError struct{ error }

func fail(err error) { panic(jsonError{err}) }

func newPairDecoder(r io.Reader) *pairDecoder {
	d := &pairDecoder{br: bufio.NewReaderSize(r, 16<<10)}
	switch c, err := d.skipSpace(); {
	case err != nil:
		d.err = io.EOF // an empty body is an empty stream
	case c == '[':
		d.array = true
	default:
		d.br.UnreadByte()
	}
	return d
}

// next returns the next pair, io.EOF at the clean end of the body, or the
// error that ends it: a JSON error, prefixed "decoding pairs", or the
// pair's sequence error.
func (d *pairDecoder) next() (p host.Pair, err error) {
	if d.err != nil {
		return host.Pair{}, d.err
	}
	defer func() {
		if e := recover(); e != nil {
			je, ok := e.(jsonError)
			if !ok {
				panic(e)
			}
			p, err = host.Pair{}, fmt.Errorf("decoding pairs: %w", je.error)
		}
		if d.err = err; err == nil {
			d.n++
		}
	}()
	return d.element()
}

// element decodes one array element or stream value. As encoding/json's
// Decoder.More has it, an array ends cleanly at a closing bracket or
// brace, at EOF (even unclosed, or after a comma) or on a read error; a
// stream ends cleanly at EOF.
func (d *pairDecoder) element() (host.Pair, error) {
	c, err := d.skipSpace()
	if d.array {
		if err != nil || c == ']' || c == '}' {
			return host.Pair{}, io.EOF
		}
		if d.n > 0 {
			expect(c, ',', "after array element")
			c, err = d.skipSpace()
		}
	}
	switch {
	case err == io.EOF:
		return host.Pair{}, io.EOF
	case err != nil:
		fail(err)
	case c == 'n': // null decodes to the zero pair
		for _, want := range []byte("ull") {
			expect(d.byte(), want, "in literal null")
		}
		return host.Pair{}, nil
	}
	expect(c, '{', "looking for a pair object")
	return d.pair()
}

// pair decodes one pair object, its '{' consumed. A sequence error waits
// for the object's end: a later duplicate key may replace the value, and
// a JSON error anywhere in the object wins.
func (d *pairDecoder) pair() (p host.Pair, bad error) {
	var bads [2]error
	c := d.space()
	for c != '}' {
		expect(c, '"', "looking for beginning of object key string")
		d.text(true)
		f := field(d.key)
		expect(d.space(), ':', "after object key")
		if c = d.space(); (f == 'a' || f == 'b') && c == '"' {
			*[2]*seq.Seq{&p.A, &p.B}[f-'a'], bads[f-'a'] = d.bases()
		} else if raw := d.value(c); f == 0 {
			if !json.Valid(raw) {
				fail(fmt.Errorf("invalid JSON value %.40q", raw))
			}
		} else if string(raw) != "null" { // null leaves the field as it was
			// ParseInt takes [+-]?[0-9]+; JSON has no '+' and no leading zero.
			id, err := strconv.ParseInt(string(raw), 10, strconv.IntSize)
			digits := bytes.TrimPrefix(raw, []byte("-"))
			if f != 'i' || err != nil || raw[0] == '+' || len(digits) > 1 && digits[0] == '0' {
				fail(fmt.Errorf("%q cannot hold %.40s", d.key, raw))
			}
			p.ID = int(id)
		}
		if c = d.space(); c != '}' {
			expect(c, ',', "after object key:value pair")
			if c = d.space(); c == '}' {
				fail(fmt.Errorf("invalid character '}' after a comma"))
			}
		}
	}
	for i, b := range bads {
		if b != nil {
			return p, fmt.Errorf("pair %d, sequence %c: %w", p.ID, 'a'+i, b)
		}
	}
	return p, nil
}

// field names the wirePair field a key selects, 'i', 'a' or 'b', or 0 for
// an unknown key. bytes.EqualFold is encoding/json's key match; a key cut
// to keyBuf is longer than every name, and no multi-byte rune folds to
// their letters.
func field(key []byte) byte {
	for _, name := range [...]string{"id", "a", "b"} {
		if bytes.EqualFold(key, []byte(name)) {
			return name[0]
		}
	}
	return 0
}

// bases scans the rest of a JSON string, its opening quote consumed, into
// a Seq sized to the string when the buffer holds all of it. It reads only
// when nothing is buffered, so a body still being written never blocks a
// complete pair. A character that is not a base ends the sequence with
// bad set; the string is still scanned to its closing quote.
func (d *pairDecoder) bases() (s seq.Seq, bad error) {
	for {
		d.byte() // fills an empty buffer
		d.br.UnreadByte()
		run, _ := d.br.Peek(d.br.Buffered())
		end := bytes.IndexByte(run, '"')
		if end >= 0 {
			run = run[:end]
		}
		if s == nil {
			s = make(seq.Seq, 0, len(run))
		}
		n := len(s)
		if s, bad = seq.AppendBytes(s, run, nil); bad == nil {
			d.br.Discard(len(run))
			if end < 0 {
				continue
			}
			d.br.Discard(1)
			return s, nil
		}
		c := run[len(s)-n] // not a base
		d.br.Discard(len(s) - n + 1)
		if c == '\\' {
			if s, bad = seq.AppendBytes(s, []byte{d.escape()}, nil); bad == nil {
				continue
			}
		} else if c < 0x20 {
			fail(fmt.Errorf("invalid character %q in string literal", c))
		}
		d.text(false)
		return nil, bad
	}
}

// text scans the rest of a JSON string, its opening quote consumed. With
// keep set it collects the decoded text into d.key as far as keyBuf holds.
func (d *pairDecoder) text(keep bool) {
	d.key = d.keyBuf[:0]
	for c := d.byte(); c != '"'; c = d.byte() {
		if c == '\\' {
			c = d.escape()
		} else if c < 0x20 {
			fail(fmt.Errorf("invalid character %q in string literal", c))
		}
		if keep && len(d.key) < cap(d.key) {
			d.key = append(d.key, c)
		}
	}
}

// escape reads a string escape, its backslash consumed, and returns the
// byte it stands for. A \u escape past ASCII returns 0x80, which is
// neither a base nor in a field name; only an error message's quoted byte
// tells it from the rune's first UTF-8 byte.
func (d *pairDecoder) escape() byte {
	c := d.byte()
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		return "\"\\/\b\f\n\r\t"[i]
	}
	expect(c, 'u', "in string escape code")
	var hex [4]byte
	for i := range hex {
		hex[i] = d.byte()
	}
	r, err := strconv.ParseUint(string(hex[:]), 16, 16)
	if err != nil {
		fail(fmt.Errorf("invalid \\u escape %q", hex[:]))
	}
	return byte(min(r, 0x80))
}

// value reads one member value that is not a sequence string, its first
// byte c consumed, into d.raw: to its last quote or bracket, or for a
// number or literal to the next delimiter. The caller checks the grammar;
// an unknown key's value goes to json.Valid, encoding/json's own checker.
// As inside the pair object under encoding/json, nesting maxDepth deep is
// refused.
func (d *pairDecoder) value(c byte) []byte {
	d.raw = d.raw[:0]
	scalar := c != '"' && c != '{' && c != '['
	for depth, str, esc := 0, false, false; ; {
		d.raw = append(d.raw, c)
		switch {
		case esc:
			esc = false
		case str:
			esc, str = c == '\\', c != '"'
		case c == '"':
			str = true
		case c == '{' || c == '[':
			if depth++; depth == maxDepth {
				fail(fmt.Errorf("exceeded max depth"))
			}
		case c == '}' || c == ']':
			depth--
		}
		if !scalar {
			if !str && depth == 0 {
				break
			}
			c = d.byte()
			continue
		}
		next, err := d.br.ReadByte()
		if err != nil || strings.IndexByte(" \t\r\n,]}", next) >= 0 {
			if err == nil {
				d.br.UnreadByte()
			}
			break
		}
		c = next
	}
	return d.raw
}

// byte returns the next byte; EOF inside a value is io.ErrUnexpectedEOF.
func (d *pairDecoder) byte() byte {
	c, err := d.br.ReadByte()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		fail(err)
	}
	return c
}

// skipSpace consumes JSON whitespace and returns the byte after it.
func (d *pairDecoder) skipSpace() (byte, error) {
	for {
		if c, err := d.br.ReadByte(); err != nil || !isSpace(c) {
			return c, err
		}
	}
}

// space is skipSpace inside a value.
func (d *pairDecoder) space() byte {
	for {
		if c := d.byte(); !isSpace(c) {
			return c
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func expect(c, want byte, context string) {
	if c != want {
		fail(fmt.Errorf("invalid character %q %s", c, context))
	}
}
