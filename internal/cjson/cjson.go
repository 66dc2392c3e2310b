// Package cjson writes and reads the canonical JSON that encoding/json's
// Marshal emits, without reflection. It is the shared scanner behind the
// hand-written codecs of the pre-v3 wire messages (internal/wire) and
// the journal records (internal/checkpoint): each codec spells out its
// own fields on top of an Enc or a Dec.
//
// Enc produces exactly the bytes json.Marshal produces for the values it
// is given: encoding/json's float format, and strings quoted by
// json.Marshal whenever they need any escaping.
//
// Dec parses the canonical subset json.Marshal emits: no whitespace,
// exact-case keys each at most once, strings of printable ASCII without
// escapes, and numbers that fit their field. Input outside it fails the
// Dec, and the codec then decodes the same bytes again with
// json.Unmarshal, so results and errors are encoding/json's.
package cjson

import (
	"encoding/json"
	"math"
	"strconv"
	"unsafe"
)

// Enc appends canonical encoding/json output to B. A non-finite float,
// which json.Marshal refuses, is recorded in Bad and BadF rather than
// written; the caller raises the failure.
type Enc struct {
	B    []byte
	Bad  bool
	BadF float64
}

func (e *Enc) Raw(s string)  { e.B = append(e.B, s...) }
func (e *Enc) Int(v int64)   { e.B = strconv.AppendInt(e.B, v, 10) }
func (e *Enc) Uint(v uint64) { e.B = strconv.AppendUint(e.B, v, 10) }

// Comma separates list element i from the one before it.
func (e *Enc) Comma(i int) {
	if i > 0 {
		e.B = append(e.B, ',')
	}
}

// Float64 writes f as encoding/json does: like strconv's shortest 'f'
// form, switching to 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero trimmed (e-07 → e-7).
func (e *Enc) Float64(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !e.Bad {
			e.Bad, e.BadF = true, f
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.B = strconv.AppendFloat(e.B, f, format, -1, 64)
	if n := len(e.B); format == 'e' && n >= 4 && e.B[n-4] == 'e' && e.B[n-3] == '-' && e.B[n-2] == '0' {
		e.B[n-2] = e.B[n-1]
		e.B = e.B[:n-1]
	}
}

func (e *Enc) Floats(fs []float64) {
	e.B = append(e.B, '[')
	for i, f := range fs {
		e.Comma(i)
		e.Float64(f)
	}
	e.B = append(e.B, ']')
}

func (e *Enc) Uints(vs []uint64) {
	e.B = append(e.B, '[')
	for i, v := range vs {
		e.Comma(i)
		e.Uint(v)
	}
	e.B = append(e.B, ']')
}

// Str writes s quoted. Printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and & goes out as is; any other
// string is quoted by json.Marshal.
func (e *Enc) Str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.B = append(e.B, q...)
			return
		}
	}
	e.B = append(e.B, '"')
	e.B = append(e.B, s...)
	e.B = append(e.B, '"')
}

// Dec is a cursor over a payload being decoded in the canonical subset.
// Input outside it fails the cursor, which then reads as ended, so every
// loop stops at once.
type Dec struct {
	B   []byte
	i   int
	bad bool
}

// Fail marks the payload as outside the canonical subset.
func (d *Dec) Fail() { d.bad, d.i = true, len(d.B) }

// OK reports whether the whole payload decoded in the canonical subset.
func (d *Dec) OK() bool { return !d.bad && d.i == len(d.B) }

// Peek returns the next byte without consuming it, or 0 at the end.
func (d *Dec) Peek() byte {
	if d.i < len(d.B) {
		return d.B[d.i]
	}
	return 0
}

// eat consumes the byte c.
func (d *Dec) eat(c byte) {
	if d.i < len(d.B) && d.B[d.i] == c {
		d.i++
		return
	}
	d.Fail()
}

// more reports whether another element follows in an object or array
// of which n elements have been read, consuming the comma before it;
// at the closing byte it consumes that and reports false.
func (d *Dec) more(n int, close byte) bool {
	if d.i >= len(d.B) {
		d.Fail()
		return false
	}
	switch c := d.B[d.i]; {
	case c == close:
		d.i++
		return false
	case n == 0:
		return true
	case c == ',':
		d.i++
		return true
	}
	d.Fail()
	return false
}

// maxKeys bounds the members of one object: the largest, a journal
// record, has 14.
const maxKeys = 16

// Object parses an object, handing each member's key to field, which
// must consume the member's value. A repeated key fails: encoding/json
// would merge the two values.
func (d *Dec) Object(field func(key []byte)) {
	var keys [maxKeys][]byte
	d.eat('{')
	for n := 0; d.more(n, '}'); n++ {
		k := d.Str()
		d.eat(':')
		if n == len(keys) {
			d.Fail()
			return
		}
		for _, prev := range keys[:n] {
			if string(prev) == string(k) {
				d.Fail()
				return
			}
		}
		keys[n] = k
		field(k)
	}
}

// Next reports whether element n of an array follows, consuming the
// '[' before the first element and the comma before any other; at the
// closing ']' it consumes that and reports false. The caller decodes
// each element it reports:
//
//	for n := 0; d.Next(n); n++ { ... }
func (d *Dec) Next(n int) bool {
	if n == 0 {
		d.eat('[')
	}
	return d.more(n, ']')
}

// List parses an array into dst's storage, one elem call per element,
// each decoding in place over whatever the element held. `[]` yields an
// empty, non-nil slice, as encoding/json's does. (elem closes over the
// decoder rather than taking it: a decoder passed to an unknown
// function would escape, costing an allocation per payload. For the
// same reason a list of plain numbers loops over Next instead: the
// escape analysis of one package cannot see into another's
// instantiation of List for a shared shape such as float64.)
func List[E any](d *Dec, dst []E, elem func(*E)) []E {
	if dst == nil {
		dst = []E{}
	}
	for n := 0; d.Next(n); n++ {
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			var zero E
			dst = append(dst, zero)
		}
		elem(&dst[n])
	}
	return dst
}

// Floats parses an array of numbers into dst's storage.
func (d *Dec) Floats(dst []float64) []float64 {
	dst = dst[:0]
	if dst == nil {
		dst = []float64{}
	}
	for n := 0; d.Next(n); n++ {
		dst = append(dst, d.Float64())
	}
	return dst
}

// Uints parses an array of unsigned integers into dst's storage.
func (d *Dec) Uints(dst []uint64) []uint64 {
	dst = dst[:0]
	if dst == nil {
		dst = []uint64{}
	}
	for n := 0; d.Next(n); n++ {
		dst = append(dst, d.Uint64())
	}
	return dst
}

// Str reads a string of printable ASCII without escapes, returning its
// bytes without the quotes.
func (d *Dec) Str() []byte {
	d.eat('"')
	for start := d.i; d.i < len(d.B); d.i++ {
		switch c := d.B[d.i]; {
		case c == '"':
			d.i++
			return d.B[start : d.i-1]
		case c < 0x20 || c > 0x7e || c == '\\':
			d.Fail()
			return nil
		}
	}
	d.Fail()
	return nil
}

// Null consumes a null literal if one is next.
func (d *Dec) Null() bool {
	if rest := d.B[d.i:]; len(rest) >= 4 && string(rest[:4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

func (d *Dec) Bool() bool {
	rest := d.B[d.i:]
	if len(rest) >= 4 && string(rest[:4]) == "true" {
		d.i += 4
		return true
	}
	if len(rest) >= 5 && string(rest[:5]) == "false" {
		d.i += 5
		return false
	}
	d.Fail()
	return false
}

// digits consumes a JSON integer's digits (no leading zero), returning
// their value; it fails on overflow and on a fraction or exponent,
// which no integer field accepts.
func (d *Dec) digits() uint64 {
	start := d.i
	var v uint64
	for ; d.i < len(d.B) && d.B[d.i] >= '0' && d.B[d.i] <= '9'; d.i++ {
		c := uint64(d.B[d.i] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.Fail()
			return 0
		}
		v = v*10 + c
	}
	if n := d.i - start; n == 0 || n > 1 && d.B[start] == '0' {
		d.Fail()
		return 0
	}
	if d.i < len(d.B) && (d.B[d.i] == '.' || d.B[d.i] == 'e' || d.B[d.i] == 'E') {
		d.Fail()
	}
	return v
}

func (d *Dec) Uint64() uint64 { return d.digits() }

func (d *Dec) Int64() int64 {
	neg := d.i < len(d.B) && d.B[d.i] == '-'
	if neg {
		d.i++
	}
	u := d.digits()
	switch {
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	d.Fail()
	return 0
}

func (d *Dec) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.Fail()
	}
	return int(v)
}

// Float64 reads a number in JSON's grammar and parses it as
// encoding/json does, with strconv.ParseFloat.
func (d *Dec) Float64() float64 {
	start := d.i
	d.skip('-')
	if d.i < len(d.B) && d.B[d.i] == '0' {
		d.i++
	} else {
		d.needDigits()
	}
	if d.skip('.') {
		d.needDigits()
	}
	if d.skip('e') || d.skip('E') {
		_ = d.skip('+') || d.skip('-')
		d.needDigits()
	}
	if d.bad {
		return 0
	}
	// The string view lives only for the call: ParseFloat copies the
	// input into any error it returns, and errors are dropped here.
	f, err := strconv.ParseFloat(unsafe.String(&d.B[start], d.i-start), 64)
	if err != nil {
		d.Fail()
	}
	return f
}

// skip consumes c if it is next.
func (d *Dec) skip(c byte) bool {
	if d.i < len(d.B) && d.B[d.i] == c {
		d.i++
		return true
	}
	return false
}

// needDigits consumes one or more decimal digits.
func (d *Dec) needDigits() {
	start := d.i
	for d.i < len(d.B) && d.B[d.i] >= '0' && d.B[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		d.Fail()
	}
}
