package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"pimnw/internal/host"
	"pimnw/internal/seq"
)

// oracleDecoder is the two-step request path the one-pass pairDecoder
// replaced: encoding/json decodes each element into a wirePair, then
// seq.FromString converts its strings. It is the reference for what the
// scanner must accept, reject and return.
type oracleDecoder struct {
	dec   *json.Decoder
	array bool
	err   error
}

func newOracleDecoder(r io.Reader) *oracleDecoder {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			return &oracleDecoder{err: io.EOF}
		}
		switch b[0] {
		case ' ', '\t', '\n', '\r':
			br.Discard(1)
			continue
		}
		d := &oracleDecoder{dec: json.NewDecoder(br), array: b[0] == '['}
		if d.array {
			if _, err := d.dec.Token(); err != nil { // consume '['
				d.err = err
			}
		}
		return d
	}
}

func (d *oracleDecoder) next() (host.Pair, error) {
	if d.err != nil {
		return host.Pair{}, d.err
	}
	if d.array && !d.dec.More() {
		d.err = io.EOF
		return host.Pair{}, d.err
	}
	var p wirePair
	if err := d.dec.Decode(&p); err != nil {
		if err != io.EOF {
			err = fmt.Errorf("decoding pairs: %w", err)
		}
		d.err = err
		return host.Pair{}, err
	}
	hp, err := toHostPair(p)
	d.err = err
	return hp, err
}

func toHostPair(p wirePair) (host.Pair, error) {
	a, err := seq.FromString(p.A, nil)
	if err != nil {
		return host.Pair{}, fmt.Errorf("pair %d, sequence a: %w", p.ID, err)
	}
	b, err := seq.FromString(p.B, nil)
	if err != nil {
		return host.Pair{}, fmt.Errorf("pair %d, sequence b: %w", p.ID, err)
	}
	return host.Pair{ID: p.ID, A: a, B: b}, nil
}

// drain returns the pairs a decoder yields before it stops, and the error
// that stopped it (nil at a clean end).
func drain(next func() (host.Pair, error)) ([]host.Pair, error) {
	var pairs []host.Pair
	for {
		p, err := next()
		if err == io.EOF {
			return pairs, nil
		}
		if err != nil {
			return pairs, err
		}
		pairs = append(pairs, p)
	}
}

// quotedByte masks the byte a sequence error quotes: for a non-ASCII rune
// the oracle quotes the first byte of its decoded form (U+FFFD for invalid
// UTF-8), the scanner the byte it read.
var quotedByte = regexp.MustCompile(`character '.*' at position`)

// checkAgainstOracle decodes body with both decoders, the scanner reading
// through r, and requires the same pairs in order and a failure on the
// same element: both a JSON error, or the same sequence error.
func checkAgainstOracle(t *testing.T, body []byte, r io.Reader) {
	t.Helper()
	want, wantErr := drain(newOracleDecoder(bytes.NewReader(body)).next)
	got, err := drain(newPairDecoder(r).next)
	if len(got) != len(want) {
		t.Fatalf("%q: %d pairs then %v, oracle %d pairs then %v", body, len(got), err, len(want), wantErr)
	}
	for i := range want {
		if got[i].ID != want[i].ID || !got[i].A.Equal(want[i].A) || !got[i].B.Equal(want[i].B) {
			t.Fatalf("%q: pair %d = %v, oracle %v", body, i, got[i], want[i])
		}
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: ends with %v, oracle with %v", body, err, wantErr)
	}
	if err == nil {
		return
	}
	msg, wantMsg := err.Error(), wantErr.Error()
	if strings.HasPrefix(wantMsg, "decoding pairs") {
		if !strings.HasPrefix(msg, "decoding pairs") {
			t.Fatalf("%q: ends with %q, oracle with the JSON error %q", body, msg, wantMsg)
		}
	} else if quotedByte.ReplaceAllString(msg, "") != quotedByte.ReplaceAllString(wantMsg, "") {
		t.Fatalf("%q: ends with %q, oracle with %q", body, msg, wantMsg)
	}
}

// decoderBodies are the differential cases, and FuzzPairDecoder's seeds.
var decoderBodies = func() []string {
	long := seq.Random(rand.New(rand.NewSource(5)), 5000).String()
	bodies := []string{
		"",
		"  \n\t ",
		`{"id":0,"a":"ACGT","b":"ACGA"}` + "\n" + `{"id":1,"a":"acgt","b":"AcGa"}` + "\n",
		`[{"id":0,"a":"ACGT","b":"ACGA"},{"id":1,"a":"TT","b":"T"}]`,
		`[ {"id":0,"a":"ACGT","b":"ACGA"} , null , {"b":"","a":"","id":-3} ]`,
		`{"id":0,"a":"ACG\/T","b":"ac"}`,
		`{"\u0069\u0064":5,"\u0061":"AC\u0047t","b":"\u004e"}`,
		`{"i\u0064x":5,"\u0041":"A","B\u0000":"X","b":"C"}`,
		`{"id":0,"a":"AC\ud83d\ude00","b":"A"}` + "\r\n",
		`{"id":0,"a":"AC\"GT","b":"A"}`,
		`{"id":0,"a":"AC\nGT","b":"A"}`,
		`{"id":0,"a":"ACé","b":"A"}`,
		`{"id":0,"a":"AC𐀀","b":"A"}`,
		"{\"id\":0,\"a\":\"AC\xffGT\",\"b\":\"A\"}",
		"{\"id\":0,\"a\":\"AC\tGT\",\"b\":\"A\"}",
		`{"id":0,"a":"AC\x","b":"A"}`,
		`{"id":0,"a":"AC\u00g0","b":"A"}`,
		`{"id":7,"x":{"y":[1,-2.5e3,{"z":null}],"w":"\"}"},"a":"ACGT","b":"ACGA","zz":[true,false,[]]}`,
		`{"ID":1,"A":"AC","B":"GT","Id":2,"iD":3}`,
		`{"id":4,"A":"AC","b":"G"}`,
		`{"idx":4,"aa":"XX","b":"G","a":"C"}`,
		`{"id":1,"a":"XX","a":"AC","b":"G"}`,
		`{"id":1,"a":"AC","a":null,"b":"G","id":null}`,
		`{"id":1,"a":"XX","b":"G","a":null}`,
		`{"id":1,"a":"ACNG","b":"G"}`,
		`{"id":1,"a":"AC","b":"GXN"}`,
		`{"id":1,"a":"AX","b":"G","z":tru}`,
		`{"id":1.5,"a":"AC","b":"G"}`,
		`{"id":1e2,"a":"AC","b":"G"}`,
		`{"id":1.0,"a":"AC","b":"G"}`,
		`{"id":-0,"a":"AC","b":"G"}`,
		`{"id":01,"a":"AC","b":"G"}`,
		`{"id":"3","a":"AC","b":"G"}`,
		`{"id":9223372036854775807,"a":"AC","b":"G"}`,
		`{"id":9223372036854775808,"a":"AC","b":"G"}`,
		`{"id":-9223372036854775808,"a":"AC","b":"G"}`,
		`{"id":true,"a":"AC","b":"G"}`,
		`{"id":1,"a":5,"b":"G"}`,
		`{"id":1,"a":["A"],"b":"G"}`,
		`{"id":1,"z":1.,"a":"A","b":"G"}`,
		`{"id":1,"z":-,"a":"A","b":"G"}`,
		`{"id":1,"z":2E+7,"a":"A","b":"G"}`,
		`{"id":1,"z":.5,"a":"A","b":"G"}`,
		`{"id":0,"a":"ACG`,
		`{"id":0,"a":"ACGT","b":"AC"`,
		`{"id":0,"a":"ACGT","b":"AC"}{"id":1,"a":"T","b":"T"}`,
		`{"id":0,"a":"ACGT","b":"AC"}x`,
		`{"id":0,"a":"ACGT","b":"AC"},`,
		`null`, `nullnull`, `nul`, `[null]`, `true`, `5`, `"ACGT"`, `[5]`, `[[]]`,
		`[`, `[]`, `[}`, `[,`, `[{"id":0,"a":"A","b":"C"}`, `[{"id":0,"a":"A","b":"C"},`,
		`[{"id":0,"a":"A","b":"C"},]`, `[{"id":0,"a":"A","b":"C"} {"id":1}]`,
		`[{"id":0,"a":"A","b":"C"}]junk`, `[{"id":0,"a":"A","b":"C"}}`,
		`{}`, `{,}`, `{"a"}`, `{"a":}`, `{"a" "C"}`, `{"a":"C",}`, `{"a":"C" "b":"G"}`,
		`{"id":0,"a":"` + long + `","b":"` + strings.ToLower(long) + `"}`,
		`{"id":0,"a":"` + long[:4000] + `A` + long[:999] + `","b":"` + long[:2500] + "X" + `"}`,
	}
	return bodies
}()

// deepBodies sit at encoding/json's nesting limit and one past it; they
// are too large to make good fuzz seeds.
var deepBodies = []string{
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"a":"A","b":"C"}`,
	`{"x":` + strings.Repeat(`{"y":`, 9999) + "1" + strings.Repeat("}", 9999) + `,"a":"A","b":"C"}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"a":"A","b":"C"}`,
	`{"x":` + strings.Repeat(`{"y":`, 10000) + "1" + strings.Repeat("}", 10000) + `,"a":"A","b":"C"}`,
}

// TestPairDecoderMatchesOracle runs every case through plain, one-byte,
// half and data-with-EOF readers, so strings and escapes span refills.
func TestPairDecoderMatchesOracle(t *testing.T) {
	for _, body := range append(decoderBodies, deepBodies...) {
		b := []byte(body)
		checkAgainstOracle(t, b, bytes.NewReader(b))
		checkAgainstOracle(t, b, iotest.OneByteReader(bytes.NewReader(b)))
		checkAgainstOracle(t, b, iotest.HalfReader(bytes.NewReader(b)))
		checkAgainstOracle(t, b, iotest.DataErrReader(bytes.NewReader(b)))
	}
}

func FuzzPairDecoder(f *testing.F) {
	for _, body := range decoderBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body, bytes.NewReader(body))
		checkAgainstOracle(t, body, iotest.OneByteReader(bytes.NewReader(body)))
		checkAgainstOracle(t, body, iotest.HalfReader(bytes.NewReader(body)))
	})
}

// kbBody is n pairs of 1 kb sequences as NDJSON, cache_warm's request shape.
func kbBody(n int) []byte {
	rng := rand.New(rand.NewSource(11))
	wires := make([]wirePair, n)
	for i := range wires {
		a := seq.Random(rng, 1000)
		wires[i] = wirePair{ID: i, A: a.String(), B: seq.UniformErrors(0.05).Apply(rng, a).String()}
	}
	return []byte(ndjsonBody(wires))
}

// TestPairDecoderAllocs: the decoder's only per-pair allocations are the
// two sequences; a sequence split across a refill may grow once more.
func TestPairDecoderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const pairs = 64
	body := kbBody(pairs)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		d := newPairDecoder(r)
		for {
			if _, err := d.next(); err != nil {
				break
			}
		}
	})
	fixed := 4.0                               // the decoder, its bufio.Reader and buffer, member-value scratch
	refills := float64(len(body)/(16<<10) + 1) // sequences a refill can split
	if allocs > 2*pairs+fixed+refills {
		t.Fatalf("%.0f allocations for %d pairs, want at most %.0f", allocs, pairs, 2*pairs+fixed+refills)
	}
}

func BenchmarkPairDecoder(b *testing.B) {
	body := kbBody(64)
	for _, tc := range []struct {
		name string
		next func(io.Reader) func() (host.Pair, error)
	}{
		{"scanner", func(r io.Reader) func() (host.Pair, error) { return newPairDecoder(r).next }},
		{"oracle", func(r io.Reader) func() (host.Pair, error) { return newOracleDecoder(r).next }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pairs, err := drain(tc.next(bytes.NewReader(body))); err != nil || len(pairs) != 64 {
					b.Fatal(len(pairs), err)
				}
			}
		})
	}
}
