package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/cjson"
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
// list, and the rest as package cjson writes it. A NaN or Inf raises
// the encodeFailure json.Marshal's error would have.
//
// Decoders parse cjson's canonical subset, here without null. Anything
// else is decoded again by json.Unmarshal into the zeroed receiver, so
// results and errors are encoding/json's. Either way
// DecodeFrom overwrites every field — an absent key leaves its field
// zero, as json.Unmarshal into a fresh value does — and reuses the
// receiver's slice storage, so a reused receiver decodes the canonical
// form without allocating. FuzzJSONTrialCodec pins both directions
// against encoding/json.

// finish returns the encoding, or raises the encodeFailure json.Marshal
// would have for a non-finite float; v is a nil pointer of the message's
// type, naming it in the error.
func finish(e *cjson.Enc, v any) []byte {
	if e.Bad {
		_, err := json.Marshal(e.BadF)
		panic(encodeFailure{fmt.Errorf("wire: marshal %T: %v", v, err)})
	}
	return e.B
}

// appendTrial writes one Trial object.
func appendTrial(e *cjson.Enc, id uint64, algo int, config []float64, deadlineMS int64, spec, pinned bool) {
	e.Raw(`{"id":`)
	e.Uint(id)
	e.Raw(`,"algo":`)
	e.Int(int64(algo))
	if len(config) > 0 {
		e.Raw(`,"config":`)
		e.Floats(config)
	}
	if deadlineMS != 0 {
		e.Raw(`,"deadline_ms":`)
		e.Int(deadlineMS)
	}
	if spec {
		e.Raw(`,"spec":true`)
	}
	if pinned {
		e.Raw(`,"pinned":true`)
	}
	e.B = append(e.B, '}')
}

// leaseTail writes LeaseNResp's fields after the trials, and its close.
func leaseTail(e *cjson.Enc, done bool, retryMS int64, draining bool, suggestMax int) {
	if done {
		e.Raw(`,"done":true`)
	}
	if retryMS != 0 {
		e.Raw(`,"retry_ms":`)
		e.Int(retryMS)
	}
	if draining {
		e.Raw(`,"draining":true`)
	}
	if suggestMax != 0 {
		e.Raw(`,"suggest_max":`)
		e.Int(int64(suggestMax))
	}
	e.B = append(e.B, '}')
}

func (m *LeaseNReq) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.Raw(`{"n":`)
	e.Int(int64(m.N))
	if len(m.Features) > 0 {
		e.Raw(`,"features":`)
		e.Floats(m.Features)
	}
	e.B = append(e.B, '}')
	return finish(&e, (*LeaseNReq)(nil))
}

func (m *LeaseNResp) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.Raw(`{"epoch":`)
	e.Int(m.Epoch)
	if len(m.Trials) > 0 {
		e.Raw(`,"trials":[`)
		for i := range m.Trials {
			t := &m.Trials[i]
			e.Comma(i)
			appendTrial(&e, t.ID, t.Algo, t.Config, t.DeadlineMS, t.Speculative, t.Pinned)
		}
		e.B = append(e.B, ']')
	}
	leaseTail(&e, m.Done, m.RetryMS, m.Draining, m.SuggestMax)
	return finish(&e, (*LeaseNResp)(nil))
}

func (m *CompleteNReq) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.Raw(`{"epoch":`)
	e.Int(m.Epoch)
	if m.Worker != 0 {
		e.Raw(`,"worker":`)
		e.Uint(m.Worker)
	}
	if m.Results == nil {
		e.Raw(`,"results":null}`)
		return finish(&e, (*CompleteNReq)(nil))
	}
	e.Raw(`,"results":[`)
	for i := range m.Results {
		r := &m.Results[i]
		e.Comma(i)
		e.Raw(`{"id":`)
		e.Uint(r.ID)
		e.Raw(`,"value":`)
		e.Float64(r.Value)
		if len(r.Features) > 0 {
			e.Raw(`,"features":`)
			e.Floats(r.Features)
		}
		e.B = append(e.B, '}')
	}
	e.Raw(`]}`)
	return finish(&e, (*CompleteNReq)(nil))
}

func (m *FailNReq) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.Raw(`{"epoch":`)
	e.Int(m.Epoch)
	if m.Fails == nil {
		e.Raw(`,"fails":null}`)
		return finish(&e, (*FailNReq)(nil))
	}
	e.Raw(`,"fails":[`)
	for i := range m.Fails {
		f := &m.Fails[i]
		e.Comma(i)
		e.Raw(`{"id":`)
		e.Uint(f.ID)
		e.Raw(`,"kind":`)
		e.Str(f.Kind)
		if f.Penalty != 0 { // NaN too: it is not empty to encoding/json
			e.Raw(`,"penalty":`)
			e.Float64(f.Penalty)
		}
		if f.Msg != "" {
			e.Raw(`,"msg":`)
			e.Str(f.Msg)
		}
		e.B = append(e.B, '}')
	}
	e.Raw(`]}`)
	return finish(&e, (*FailNReq)(nil))
}

func (m *AckResp) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.B = append(e.B, '{')
	if len(m.Applied) > 0 {
		e.Raw(`"applied":`)
		e.Uints(m.Applied)
	}
	if len(m.Dropped) > 0 {
		if len(m.Applied) > 0 {
			e.B = append(e.B, ',')
		}
		e.Raw(`"dropped":`)
		e.Uints(m.Dropped)
	}
	e.B = append(e.B, '}')
	return e.B
}

// decoded finishes a DecodeFrom: a canonical payload is done; any other
// is decoded again by encoding/json into the zeroed receiver.
func decoded[T any](d *cjson.Dec, buf []byte, m *T) error {
	if d.OK() {
		return nil
	}
	var zero T
	*m = zero
	return decodeJSON(buf, m)
}

func (m *LeaseNReq) DecodeFrom(buf []byte) error {
	d := cjson.Dec{B: buf}
	feats := m.Features[:0]
	*m = LeaseNReq{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "n":
			m.N = d.Int()
		case "features":
			m.Features = d.Floats(feats)
		default:
			d.Fail()
		}
	})
	return decoded(&d, buf, m)
}

func (m *LeaseNResp) DecodeFrom(buf []byte) error {
	d := cjson.Dec{B: buf}
	trials := m.Trials[:0]
	*m = LeaseNResp{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.Int64()
		case "trials":
			m.Trials = cjson.List(&d, trials, func(e *Trial) { e.readFrom(&d) })
		case "done":
			m.Done = d.Bool()
		case "retry_ms":
			m.RetryMS = d.Int64()
		case "draining":
			m.Draining = d.Bool()
		case "suggest_max":
			m.SuggestMax = d.Int()
		default:
			d.Fail()
		}
	})
	return decoded(&d, buf, m)
}

// readFrom decodes one list element in place. Like DecodeFrom it
// overwrites every field and keeps the element's slice storage; each
// element type of the five messages has one.
func (t *Trial) readFrom(d *cjson.Dec) {
	config := t.Config[:0]
	*t = Trial{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "id":
			t.ID = d.Uint64()
		case "algo":
			t.Algo = d.Int()
		case "config":
			t.Config = d.Floats(config)
		case "deadline_ms":
			t.DeadlineMS = d.Int64()
		case "spec":
			t.Speculative = d.Bool()
		case "pinned":
			t.Pinned = d.Bool()
		default:
			d.Fail()
		}
	})
}

func (m *CompleteNReq) DecodeFrom(buf []byte) error {
	d := cjson.Dec{B: buf}
	results := m.Results[:0]
	*m = CompleteNReq{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.Int64()
		case "worker":
			m.Worker = d.Uint64()
		case "results":
			m.Results = cjson.List(&d, results, func(e *Result) { e.readFrom(&d) })
		default:
			d.Fail()
		}
	})
	return decoded(&d, buf, m)
}

func (r *Result) readFrom(d *cjson.Dec) {
	feats := r.Features[:0]
	*r = Result{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "id":
			r.ID = d.Uint64()
		case "value":
			r.Value = d.Float64()
		case "features":
			r.Features = d.Floats(feats)
		default:
			d.Fail()
		}
	})
}

func (m *FailNReq) DecodeFrom(buf []byte) error {
	d := cjson.Dec{B: buf}
	fails := m.Fails[:0]
	*m = FailNReq{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.Int64()
		case "fails":
			m.Fails = cjson.List(&d, fails, func(e *Fail) { e.readFrom(&d) })
		default:
			d.Fail()
		}
	})
	return decoded(&d, buf, m)
}

func (f *Fail) readFrom(d *cjson.Dec) {
	*f = Fail{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "id":
			f.ID = d.Uint64()
		case "kind":
			f.Kind = string(d.Str())
		case "penalty":
			f.Penalty = d.Float64()
		case "msg":
			f.Msg = string(d.Str())
		default:
			d.Fail()
		}
	})
}

func (m *AckResp) DecodeFrom(buf []byte) error {
	d := cjson.Dec{B: buf}
	applied, dropped := m.Applied[:0], m.Dropped[:0]
	*m = AckResp{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "applied":
			m.Applied = d.Uints(applied)
		case "dropped":
			m.Dropped = d.Uints(dropped)
		default:
			d.Fail()
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
	d := cjson.Dec{B: buf}
	results := m.Results[:0]
	*m = PackedCompleteReq{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.Int64()
		case "worker":
			m.Worker = d.Uint64()
		case "results":
			m.Results = cjson.List(&d, results, func(e *PackedResult) { e.readFrom(&d) })
		default:
			d.Fail()
		}
	})
	if d.OK() {
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

func (r *PackedResult) readFrom(d *cjson.Dec) {
	*r = PackedResult{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "id":
			r.ID = d.Uint64()
		case "value":
			r.Value = d.Float64()
		case "features":
			d.Floats(nil) // validated, not kept
		default:
			d.Fail()
		}
	})
}

// DecodeJSON decodes a FailNReq body (frame TFailN) into m, each kind
// mapped by FailKind.
func (m *PackedFailReq) DecodeJSON(buf []byte) error {
	d := cjson.Dec{B: buf}
	fails := m.Fails[:0]
	*m = PackedFailReq{}
	d.Object(func(k []byte) {
		switch string(k) {
		case "epoch":
			m.Epoch = d.Int64()
		case "fails":
			m.Fails = cjson.List(&d, fails, func(e *PackedFail) { e.readFrom(&d) })
		default:
			d.Fail()
		}
	})
	if d.OK() {
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

func (f *PackedFail) readFrom(d *cjson.Dec) {
	*f = PackedFail{Kind: FailKind("")} // an absent kind is the empty string
	d.Object(func(k []byte) {
		switch string(k) {
		case "id":
			f.ID = d.Uint64()
		case "kind":
			f.Kind = FailKind(string(d.Str()))
		case "penalty":
			f.Penalty = d.Float64()
		case "msg":
			f.Msg = string(d.Str())
		default:
			d.Fail()
		}
	})
}

// JSON returns m as the LeaseNResp body of a TTrials frame.
func (m *PackedTrials) JSON() Encoder { return (*trialsJSON)(m) }

// JSON returns m as the AckResp body of a TAck frame.
func (m *PackedAck) JSON() Encoder { return (*AckResp)(m) }

type trialsJSON PackedTrials

func (m *trialsJSON) AppendEncode(buf []byte) []byte {
	e := cjson.Enc{B: buf}
	e.Raw(`{"epoch":`)
	e.Int(m.Epoch)
	if len(m.Trials) > 0 {
		e.Raw(`,"trials":[`)
		for i := range m.Trials {
			t := &m.Trials[i]
			e.Comma(i)
			appendTrial(&e, t.ID, t.Algo, t.Config, t.DeadlineMS, t.Speculative, t.Pinned)
		}
		e.B = append(e.B, ']')
	}
	leaseTail(&e, m.Done, m.RetryMS, m.Draining, m.SuggestMax)
	return finish(&e, (*LeaseNResp)(nil))
}
