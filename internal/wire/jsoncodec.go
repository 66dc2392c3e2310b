package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// The hand-written codec of the five JSON messages a pre-v3 session
// exchanges on every trial: LeaseNReq, LeaseNResp, CompleteNReq,
// FailNReq and AckResp. Through encoding/json's reflection these cost a
// pre-v3 trial microseconds and several allocations per frame; here
// they cost about what the packed codec costs, with the wire bytes
// unchanged.
//
// Encoders produce exactly the bytes json.Marshal produces: the same
// field order and omitempty rules, null for a nil results or fails
// list, and encoding/json's float format. A string that needs any
// escaping is handed to json.Marshal, and a NaN or Inf raises the
// encodeFailure json.Marshal's error would have.
//
// Decoders parse the canonical subset json.Marshal emits: no
// whitespace, exact-case known keys each at most once, no null, strings
// of printable ASCII without escapes, and numbers that fit their field.
// Anything else is decoded again by json.Unmarshal into the zeroed
// receiver, so results and errors are encoding/json's. Either way
// DecodeFrom overwrites every field — an absent key leaves its field
// zero, as json.Unmarshal into a fresh value does — and reuses the
// receiver's slice storage, so a reused receiver decodes the canonical
// form without allocating. FuzzJSONTrialCodec pins both directions
// against encoding/json.

// jenc appends canonical encoding/json output to b. A non-finite float,
// which json.Marshal refuses, is recorded rather than written; finish
// then raises the failure.
type jenc struct {
	b    []byte
	bad  bool
	badF float64
}

func (e *jenc) raw(s string)  { e.b = append(e.b, s...) }
func (e *jenc) int(v int64)   { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *jenc) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// comma separates list element i from the one before it.
func (e *jenc) comma(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// float64 writes f as encoding/json does: like strconv's shortest 'f'
// form, switching to 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero trimmed (e-07 → e-7).
func (e *jenc) float64(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !e.bad {
			e.bad, e.badF = true, f
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *jenc) floats(fs []float64) {
	e.b = append(e.b, '[')
	for i, f := range fs {
		e.comma(i)
		e.float64(f)
	}
	e.b = append(e.b, ']')
}

func (e *jenc) uints(vs []uint64) {
	e.b = append(e.b, '[')
	for i, v := range vs {
		e.comma(i)
		e.uint(v)
	}
	e.b = append(e.b, ']')
}

// str writes s quoted. Printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and & goes out as is; any other
// string is quoted by json.Marshal.
func (e *jenc) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// finish returns the encoding, or raises the encodeFailure json.Marshal
// would have for a non-finite float; v is a nil pointer of the message's
// type, naming it in the error.
func (e *jenc) finish(v any) []byte {
	if e.bad {
		_, err := json.Marshal(e.badF)
		panic(encodeFailure{fmt.Errorf("wire: marshal %T: %v", v, err)})
	}
	return e.b
}

// trial writes one Trial object.
func (e *jenc) trial(id uint64, algo int, config []float64, deadlineMS int64, spec, pinned bool) {
	e.raw(`{"id":`)
	e.uint(id)
	e.raw(`,"algo":`)
	e.int(int64(algo))
	if len(config) > 0 {
		e.raw(`,"config":`)
		e.floats(config)
	}
	if deadlineMS != 0 {
		e.raw(`,"deadline_ms":`)
		e.int(deadlineMS)
	}
	if spec {
		e.raw(`,"spec":true`)
	}
	if pinned {
		e.raw(`,"pinned":true`)
	}
	e.b = append(e.b, '}')
}

// leaseTail writes LeaseNResp's fields after the trials, and its close.
func (e *jenc) leaseTail(done bool, retryMS int64, draining bool, suggestMax int) {
	if done {
		e.raw(`,"done":true`)
	}
	if retryMS != 0 {
		e.raw(`,"retry_ms":`)
		e.int(retryMS)
	}
	if draining {
		e.raw(`,"draining":true`)
	}
	if suggestMax != 0 {
		e.raw(`,"suggest_max":`)
		e.int(int64(suggestMax))
	}
	e.b = append(e.b, '}')
}

func (m *LeaseNReq) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.raw(`{"n":`)
	e.int(int64(m.N))
	if len(m.Features) > 0 {
		e.raw(`,"features":`)
		e.floats(m.Features)
	}
	e.b = append(e.b, '}')
	return e.finish((*LeaseNReq)(nil))
}

func (m *LeaseNResp) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.raw(`{"epoch":`)
	e.int(m.Epoch)
	if len(m.Trials) > 0 {
		e.raw(`,"trials":[`)
		for i := range m.Trials {
			t := &m.Trials[i]
			e.comma(i)
			e.trial(t.ID, t.Algo, t.Config, t.DeadlineMS, t.Speculative, t.Pinned)
		}
		e.b = append(e.b, ']')
	}
	e.leaseTail(m.Done, m.RetryMS, m.Draining, m.SuggestMax)
	return e.finish((*LeaseNResp)(nil))
}

func (m *CompleteNReq) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.raw(`{"epoch":`)
	e.int(m.Epoch)
	if m.Worker != 0 {
		e.raw(`,"worker":`)
		e.uint(m.Worker)
	}
	if m.Results == nil {
		e.raw(`,"results":null}`)
		return e.finish((*CompleteNReq)(nil))
	}
	e.raw(`,"results":[`)
	for i := range m.Results {
		r := &m.Results[i]
		e.comma(i)
		e.raw(`{"id":`)
		e.uint(r.ID)
		e.raw(`,"value":`)
		e.float64(r.Value)
		if len(r.Features) > 0 {
			e.raw(`,"features":`)
			e.floats(r.Features)
		}
		e.b = append(e.b, '}')
	}
	e.raw(`]}`)
	return e.finish((*CompleteNReq)(nil))
}

func (m *FailNReq) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.raw(`{"epoch":`)
	e.int(m.Epoch)
	if m.Fails == nil {
		e.raw(`,"fails":null}`)
		return e.finish((*FailNReq)(nil))
	}
	e.raw(`,"fails":[`)
	for i := range m.Fails {
		f := &m.Fails[i]
		e.comma(i)
		e.raw(`{"id":`)
		e.uint(f.ID)
		e.raw(`,"kind":`)
		e.str(f.Kind)
		if f.Penalty != 0 { // NaN too: it is not empty to encoding/json
			e.raw(`,"penalty":`)
			e.float64(f.Penalty)
		}
		if f.Msg != "" {
			e.raw(`,"msg":`)
			e.str(f.Msg)
		}
		e.b = append(e.b, '}')
	}
	e.raw(`]}`)
	return e.finish((*FailNReq)(nil))
}

func (m *AckResp) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.b = append(e.b, '{')
	if len(m.Applied) > 0 {
		e.raw(`"applied":`)
		e.uints(m.Applied)
	}
	if len(m.Dropped) > 0 {
		if len(m.Applied) > 0 {
			e.b = append(e.b, ',')
		}
		e.raw(`"dropped":`)
		e.uints(m.Dropped)
	}
	e.b = append(e.b, '}')
	return e.b
}

// jdec is a cursor over a payload being decoded in the canonical
// subset. Input outside it fails the cursor, which then reads as ended,
// so every loop stops at once; the caller falls back to json.Unmarshal.
type jdec struct {
	b   []byte
	i   int
	bad bool
}

func (d *jdec) fail() { d.bad, d.i = true, len(d.b) }

// ok reports whether the whole payload decoded in the canonical subset.
func (d *jdec) ok() bool { return !d.bad && d.i == len(d.b) }

// eat consumes the byte c.
func (d *jdec) eat(c byte) {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return
	}
	d.fail()
}

// more reports whether another element follows in an object or array
// of which n elements have been read, consuming the comma before it;
// at the closing byte it consumes that and reports false.
func (d *jdec) more(n int, close byte) bool {
	if d.i >= len(d.b) {
		d.fail()
		return false
	}
	switch c := d.b[d.i]; {
	case c == close:
		d.i++
		return false
	case n == 0:
		return true
	case c == ',':
		d.i++
		return true
	}
	d.fail()
	return false
}

// object parses an object, handing each member's key to field, which
// must consume the member's value. A repeated key fails: encoding/json
// would merge the two values. No message has more than 8 keys.
func (d *jdec) object(field func(key []byte)) {
	var keys [8][]byte
	d.eat('{')
	for n := 0; d.more(n, '}'); n++ {
		k := d.str()
		d.eat(':')
		if n == len(keys) {
			d.fail()
			return
		}
		for _, prev := range keys[:n] {
			if string(prev) == string(k) {
				d.fail()
				return
			}
		}
		keys[n] = k
		field(k)
	}
}

// list parses an array into dst's storage, one elem call per element.
// `[]` yields an empty, non-nil slice, as encoding/json's does. (elem
// closes over the decoder rather than taking it: a decoder passed to an
// unknown function would escape, costing an allocation per payload.)
func list[E any](d *jdec, dst []E, elem func(*E)) []E {
	if dst == nil {
		dst = []E{}
	}
	d.eat('[')
	for n := 0; d.more(n, ']'); n++ {
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

func (d *jdec) floats(dst []float64) []float64 {
	return list(d, dst, func(f *float64) { *f = d.float64() })
}

func (d *jdec) uints(dst []uint64) []uint64 {
	return list(d, dst, func(v *uint64) { *v = d.uint64() })
}

// str reads a string of printable ASCII without escapes, returning its
// bytes without the quotes.
func (d *jdec) str() []byte {
	d.eat('"')
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c < 0x20 || c > 0x7e || c == '\\':
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

func (d *jdec) bool() bool {
	rest := d.b[d.i:]
	if len(rest) >= 4 && string(rest[:4]) == "true" {
		d.i += 4
		return true
	}
	if len(rest) >= 5 && string(rest[:5]) == "false" {
		d.i += 5
		return false
	}
	d.fail()
	return false
}

// digits consumes a JSON integer's digits (no leading zero), returning
// their value; it fails on overflow and on a fraction or exponent,
// which no integer field accepts.
func (d *jdec) digits() uint64 {
	start := d.i
	var v uint64
	for ; d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.fail()
			return 0
		}
		v = v*10 + c
	}
	if n := d.i - start; n == 0 || n > 1 && d.b[start] == '0' {
		d.fail()
		return 0
	}
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.fail()
	}
	return v
}

func (d *jdec) uint64() uint64 { return d.digits() }

func (d *jdec) int64() int64 {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
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
	d.fail()
	return 0
}

func (d *jdec) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail()
	}
	return int(v)
}

// float64 reads a number in JSON's grammar and parses it as
// encoding/json does, with strconv.ParseFloat.
func (d *jdec) float64() float64 {
	start := d.i
	d.skip('-')
	if d.i < len(d.b) && d.b[d.i] == '0' {
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
	f, err := strconv.ParseFloat(unsafe.String(&d.b[start], d.i-start), 64)
	if err != nil {
		d.fail()
	}
	return f
}

// skip consumes c if it is next.
func (d *jdec) skip(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// needDigits consumes one or more decimal digits.
func (d *jdec) needDigits() {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		d.fail()
	}
}

// decoded finishes a DecodeFrom: a canonical payload is done; any other
// is decoded again by encoding/json into the zeroed receiver.
func decoded[T any](d *jdec, buf []byte, m *T) error {
	if d.ok() {
		return nil
	}
	var zero T
	*m = zero
	return decodeJSON(buf, m)
}

func (m *LeaseNReq) DecodeFrom(buf []byte) error {
	d := jdec{b: buf}
	feats := m.Features[:0]
	*m = LeaseNReq{}
	d.object(func(k []byte) {
		switch string(k) {
		case "n":
			m.N = d.int()
		case "features":
			m.Features = d.floats(feats)
		default:
			d.fail()
		}
	})
	return decoded(&d, buf, m)
}

func (m *LeaseNResp) DecodeFrom(buf []byte) error {
	d := jdec{b: buf}
	trials := m.Trials[:0]
	*m = LeaseNResp{}
	d.object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.int64()
		case "trials":
			m.Trials = list(&d, trials, func(e *Trial) { e.readFrom(&d) })
		case "done":
			m.Done = d.bool()
		case "retry_ms":
			m.RetryMS = d.int64()
		case "draining":
			m.Draining = d.bool()
		case "suggest_max":
			m.SuggestMax = d.int()
		default:
			d.fail()
		}
	})
	return decoded(&d, buf, m)
}

// readFrom decodes one list element in place. Like DecodeFrom it
// overwrites every field and keeps the element's slice storage; each
// element type of the five messages has one.
func (t *Trial) readFrom(d *jdec) {
	config := t.Config[:0]
	*t = Trial{}
	d.object(func(k []byte) {
		switch string(k) {
		case "id":
			t.ID = d.uint64()
		case "algo":
			t.Algo = d.int()
		case "config":
			t.Config = d.floats(config)
		case "deadline_ms":
			t.DeadlineMS = d.int64()
		case "spec":
			t.Speculative = d.bool()
		case "pinned":
			t.Pinned = d.bool()
		default:
			d.fail()
		}
	})
}

func (m *CompleteNReq) DecodeFrom(buf []byte) error {
	d := jdec{b: buf}
	results := m.Results[:0]
	*m = CompleteNReq{}
	d.object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.int64()
		case "worker":
			m.Worker = d.uint64()
		case "results":
			m.Results = list(&d, results, func(e *Result) { e.readFrom(&d) })
		default:
			d.fail()
		}
	})
	return decoded(&d, buf, m)
}

func (r *Result) readFrom(d *jdec) {
	feats := r.Features[:0]
	*r = Result{}
	d.object(func(k []byte) {
		switch string(k) {
		case "id":
			r.ID = d.uint64()
		case "value":
			r.Value = d.float64()
		case "features":
			r.Features = d.floats(feats)
		default:
			d.fail()
		}
	})
}

func (m *FailNReq) DecodeFrom(buf []byte) error {
	d := jdec{b: buf}
	fails := m.Fails[:0]
	*m = FailNReq{}
	d.object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.int64()
		case "fails":
			m.Fails = list(&d, fails, func(e *Fail) { e.readFrom(&d) })
		default:
			d.fail()
		}
	})
	return decoded(&d, buf, m)
}

func (f *Fail) readFrom(d *jdec) {
	*f = Fail{}
	d.object(func(k []byte) {
		switch string(k) {
		case "id":
			f.ID = d.uint64()
		case "kind":
			f.Kind = string(d.str())
		case "penalty":
			f.Penalty = d.float64()
		case "msg":
			f.Msg = string(d.str())
		default:
			d.fail()
		}
	})
}

func (m *AckResp) DecodeFrom(buf []byte) error {
	d := jdec{b: buf}
	applied, dropped := m.Applied[:0], m.Dropped[:0]
	*m = AckResp{}
	d.object(func(k []byte) {
		switch string(k) {
		case "applied":
			m.Applied = d.uints(applied)
		case "dropped":
			m.Dropped = d.uints(dropped)
		default:
			d.fail()
		}
	})
	return decoded(&d, buf, m)
}

// The packed structs seen as JSON messages. A server decodes every
// trial request into the packed structs, whatever the session's
// version, and answers a pre-v3 session from the same storage in the
// JSON form of the pre-v3 frame type.

// FailKind maps a JSON failure kind — guard.Kind's string form — onto
// its packed code. An unknown kind is FailInvalid.
func FailKind(s string) uint8 {
	switch s {
	case "panic":
		return FailPanic
	case "timeout":
		return FailTimeout
	default:
		return FailInvalid
	}
}

// DecodeJSON decodes a LeaseNReq body (frame TLeaseN) into m.
func (m *PackedLeaseReq) DecodeJSON(buf []byte) error { return (*LeaseNReq)(m).DecodeFrom(buf) }

// DecodeJSON decodes a CompleteNReq body (frame TCompleteN) into m: the
// CompleteNReq json.Unmarshal gives, each result's Features dropped.
func (m *PackedCompleteReq) DecodeJSON(buf []byte) error {
	d := jdec{b: buf}
	results := m.Results[:0]
	*m = PackedCompleteReq{}
	d.object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.int64()
		case "worker":
			m.Worker = d.uint64()
		case "results":
			m.Results = list(&d, results, func(e *PackedResult) { e.readFrom(&d) })
		default:
			d.fail()
		}
	})
	if d.ok() {
		return nil
	}
	var full CompleteNReq
	if err := decodeJSON(buf, &full); err != nil {
		return err
	}
	*m = PackedCompleteReq{Epoch: full.Epoch, Worker: full.Worker, Results: results}
	for _, r := range full.Results {
		m.Results = append(m.Results, PackedResult{ID: r.ID, Value: r.Value})
	}
	return nil
}

func (r *PackedResult) readFrom(d *jdec) {
	*r = PackedResult{}
	d.object(func(k []byte) {
		switch string(k) {
		case "id":
			r.ID = d.uint64()
		case "value":
			r.Value = d.float64()
		case "features":
			d.floats(nil) // validated, not kept
		default:
			d.fail()
		}
	})
}

// DecodeJSON decodes a FailNReq body (frame TFailN) into m, each kind
// mapped by FailKind.
func (m *PackedFailReq) DecodeJSON(buf []byte) error {
	d := jdec{b: buf}
	fails := m.Fails[:0]
	*m = PackedFailReq{}
	d.object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.int64()
		case "fails":
			m.Fails = list(&d, fails, func(e *PackedFail) { e.readFrom(&d) })
		default:
			d.fail()
		}
	})
	if d.ok() {
		return nil
	}
	var full FailNReq
	if err := decodeJSON(buf, &full); err != nil {
		return err
	}
	*m = PackedFailReq{Epoch: full.Epoch, Fails: fails}
	for _, f := range full.Fails {
		m.Fails = append(m.Fails, PackedFail{ID: f.ID, Kind: FailKind(f.Kind), Penalty: f.Penalty, Msg: f.Msg})
	}
	return nil
}

func (f *PackedFail) readFrom(d *jdec) {
	*f = PackedFail{Kind: FailKind("")} // an absent kind is the empty string
	d.object(func(k []byte) {
		switch string(k) {
		case "id":
			f.ID = d.uint64()
		case "kind":
			f.Kind = FailKind(string(d.str()))
		case "penalty":
			f.Penalty = d.float64()
		case "msg":
			f.Msg = string(d.str())
		default:
			d.fail()
		}
	})
}

// JSON returns m as the LeaseNResp body of a TTrials frame.
func (m *PackedTrials) JSON() Encoder { return (*trialsJSON)(m) }

// JSON returns m as the AckResp body of a TAck frame.
func (m *PackedAck) JSON() Encoder { return (*AckResp)(m) }

type trialsJSON PackedTrials

func (m *trialsJSON) AppendEncode(buf []byte) []byte {
	e := jenc{b: buf}
	e.raw(`{"epoch":`)
	e.int(m.Epoch)
	if len(m.Trials) > 0 {
		e.raw(`,"trials":[`)
		for i := range m.Trials {
			t := &m.Trials[i]
			e.comma(i)
			e.trial(t.ID, t.Algo, t.Config, t.DeadlineMS, t.Speculative, t.Pinned)
		}
		e.b = append(e.b, ']')
	}
	e.leaseTail(m.Done, m.RetryMS, m.Draining, m.SuggestMax)
	return e.finish((*LeaseNResp)(nil))
}
