package trace

// The typed JSONL codec both record formats share.
//
// Writers append each record into one reused buffer with strconv, byte
// for byte what encoding/json writes for the tagged struct. Readers take
// the input one line at a time through a schema-fixed parser that
// accepts only the plain shape the writers produce (and the spacing and
// key order other JSON emitters use). The first line it does not take
// hands the unread rest of the stream to an encoding/json decoder loop,
// so any other valid JSON — an unknown or case-variant key, a repeated
// key, null, an escape, a record spread over lines — decodes exactly as
// encoding/json alone decodes it, with the same errors at the same
// record indices.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// flushAt is the buffered byte count at which a writer hands its buffer
// to the io.Writer (bufio's default size); the buffer starts at twice
// that, so the record that crosses it seldom grows the buffer.
const flushAt = 4 << 10

// writeJSONL appends each record with appendRec into one reused buffer,
// handing the buffer to w whenever it holds flushAt bytes.
func writeJSONL[T any](w io.Writer, recs []T, appendRec func(b []byte, rec *T) ([]byte, error)) error {
	buf := make([]byte, 0, 2*flushAt)
	for i := range recs {
		var err error
		if buf, err = appendRec(buf, &recs[i]); err != nil {
			return err
		}
		if len(buf) >= flushAt || i == len(recs)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// appendFloat appends f as encoding/json formats a float64: 'f', or 'e'
// when |f| < 1e-6 or |f| >= 1e21, with a one-digit negative exponent
// written as e-7 rather than e-07. NaN and ±Inf have no JSON form.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// readJSONL reads one wire record T per line and returns what keep
// makes of each, keep validating record i and erring on one it rejects.
// parse is the schema-fixed fast path for one line; at the first
// non-blank line it does not take, that line and the rest of the stream
// go to the encoding/json loop. what names a record in decode errors
// ("access", "interval").
func readJSONL[T, R any](r io.Reader, what string, parse func(line []byte, v *T) bool, keep func(i int, v *T) (R, error)) ([]R, error) {
	var out []R
	br := bufio.NewReader(r)
	var long []byte
	// One record, zeroed per line: it escapes to the heap through the
	// func values, so a fresh one per line would cost an allocation.
	v := new(T)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		var rest io.Reader
		switch {
		case err != nil && err != io.EOF:
			rest = io.MultiReader(bytes.NewReader(line), errReader{err})
		case blank(line):
		default:
			var zero T
			*v = zero
			if !parse(line, v) {
				rest = io.MultiReader(bytes.NewReader(bytes.Clone(line)), br)
				break
			}
			rec, kerr := keep(len(out), v)
			if kerr != nil {
				return nil, kerr
			}
			out = append(out, rec)
		}
		if rest != nil {
			return decodeJSON(rest, what, out, keep)
		}
		if err == io.EOF {
			return out, nil
		}
	}
}

// decodeJSON is the encoding/json loop readJSONL falls back to, after
// the records out already holds.
func decodeJSON[T, R any](r io.Reader, what string, out []R, keep func(i int, v *T) (R, error)) ([]R, error) {
	dec := json.NewDecoder(r)
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding %s %d: %w", what, len(out), err)
		}
		rec, err := keep(len(out), &v)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func blank(line []byte) bool {
	for _, c := range line {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// lineParser is a cursor over one line for the schema-fixed fast path.
// Every method reports false on anything outside the plain shape, which
// sends the line to encoding/json; none of them decides that an input is
// invalid.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) space() {
	for p.i < len(p.b) && p.b[p.i] <= ' ' && isSpace(p.b[p.i]) {
		p.i++
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (p *lineParser) consume(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object reads the line's one flat object, calling field after each
// key to read its value, and reports whether the line held exactly that
// object and whitespace. field returns the key's own bit, so a repeated
// key is not taken; nor is a key with an escape, whose bytes are not its
// name.
func (p *lineParser) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !p.consume('{') {
		return false
	}
	if !p.consume('}') {
		var seen uint
		for {
			key, ok := p.str()
			if !ok || !p.consume(':') {
				return false
			}
			bit, ok := field(key)
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if p.consume('}') {
				break
			}
			if !p.consume(',') {
				return false
			}
		}
	}
	p.space()
	return p.i == len(p.b)
}

// str reads a string with no escape and returns its bytes.
func (p *lineParser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number reads a JSON-grammar number literal.
func (p *lineParser) number() ([]byte, bool) {
	p.space()
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	p.i = i
	return b[start:i], true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// uint reads an integer literal no larger than max. A fraction, an
// exponent or a sign is not taken, as encoding/json does not take one
// into an unsigned field (nor a fraction or exponent into a signed one).
func (p *lineParser) uint(max uint64) (uint64, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	return parseDigits(lit, max)
}

func parseDigits(lit []byte, max uint64) (uint64, bool) {
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// int reads an integer literal that fits an int.
func (p *lineParser) int() (int, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	if lit[0] != '-' {
		n, ok := parseDigits(lit, math.MaxInt)
		return int(n), ok
	}
	n, ok := parseDigits(lit[1:], math.MaxInt+1)
	return int(-n), ok
}

// float reads a number literal as encoding/json does: strconv.ParseFloat
// of the literal, not taken when out of range.
func (p *lineParser) float() (float64, bool) {
	lit, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// bool reads true or false.
func (p *lineParser) bool() (v, ok bool) {
	p.space()
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// array reads a JSON array, calling elem at each element's start.
func (p *lineParser) array(elem func() bool) bool {
	if !p.consume('[') {
		return false
	}
	if p.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.consume(']') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
}
