package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// jsonTrialSeeds are the trial messages the fuzz corpus and the
// byte-compat tests start from: FuzzWireDecode's JSON seeds of the five
// types, plus floats at encoding/json's format boundaries.
func jsonTrialSeeds() []Payload {
	edge := []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324, 1e-6, 1e20, 0.1, -123.456e300}
	return []Payload{
		&LeaseNReq{N: 8},
		&LeaseNReq{N: 8, Features: []float64{1, 100.5, -3}},
		&LeaseNReq{N: 1, Features: edge},
		&LeaseNResp{Epoch: 42, Trials: []Trial{{ID: 7, Algo: 2, Config: []float64{1, 2.5}, DeadlineMS: 1700000000000}}},
		&LeaseNResp{Epoch: 42, RetryMS: 25, Draining: true},
		&LeaseNResp{Epoch: 42, SuggestMax: 4, Trials: []Trial{{ID: 7, Algo: 2}}},
		&LeaseNResp{Epoch: -1, Done: true, Trials: []Trial{{ID: 1, Config: edge, Speculative: true, Pinned: true}, {ID: 2}}},
		&CompleteNReq{Epoch: 42, Results: []Result{{ID: 7, Value: 3.25}}},
		&CompleteNReq{Epoch: 42, Results: []Result{{ID: 1 << 48, Value: 3.25, Features: []float64{100}}}},
		&CompleteNReq{Epoch: 42, Worker: math.MaxUint64, Results: []Result{{ID: 1, Value: 1e-7}, {ID: 2, Value: 1e21}, {ID: 3, Value: math.Copysign(0, -1)}, {ID: 4, Value: 5e-324}}},
		&CompleteNReq{Epoch: 42},
		&CompleteNReq{Epoch: 42, Results: []Result{}},
		&FailNReq{Fails: []Fail{{ID: 9, Kind: "timeout", Penalty: 100}}},
		&FailNReq{Epoch: 3, Fails: []Fail{{ID: 1, Kind: "panic", Penalty: 5e-324, Msg: "boom"}, {ID: 2, Kind: "invalid", Msg: "<bad> & \"quoted\"\n é"}}},
		&AckResp{Applied: []uint64{1}, Dropped: []uint64{2}},
		&AckResp{Dropped: []uint64{2, 3}},
		&AckResp{},
	}
}

// TestJSONTrialEncodeMatchesMarshal pins the encoders to json.Marshal,
// byte for byte, on every seed.
func TestJSONTrialEncodeMatchesMarshal(t *testing.T) {
	for _, m := range jsonTrialSeeds() {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.AppendEncode([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Errorf("%T encode:\n got %s\nwant prefix%s", m, got, want)
		}
	}
}

// TestJSONTrialEncodeNonFinite: a NaN or Inf fails the frame with the
// error json.Marshal gives, and leaves dst as it was.
func TestJSONTrialEncodeNonFinite(t *testing.T) {
	for _, m := range []Payload{
		&LeaseNReq{N: 1, Features: []float64{1, math.NaN()}},
		&LeaseNResp{Trials: []Trial{{Config: []float64{math.Inf(1)}}}},
		&CompleteNReq{Results: []Result{{Value: math.Inf(-1)}, {Value: math.NaN()}}},
		&FailNReq{Fails: []Fail{{Kind: "panic", Penalty: math.NaN()}}},
	} {
		_, jerr := json.Marshal(m)
		dst := []byte("keep")
		out, err := AppendFrame(dst, Version, TLeaseN, 0, m)
		if err == nil || jerr == nil || !strings.HasSuffix(err.Error(), jerr.Error()) {
			t.Errorf("%T: error %v, json.Marshal's %v", m, err, jerr)
		}
		if string(out) != "keep" {
			t.Errorf("%T: dst %q after a failed encode", m, out)
		}
	}
	var trials PackedTrials
	trials.Trials = []PackedTrial{{ID: 1, Config: []float64{math.NaN()}}}
	if _, err := AppendFrame(nil, 2, TTrials, 0, trials.JSON()); err == nil || !strings.Contains(err.Error(), "*wire.LeaseNResp") {
		t.Errorf("packed trials as JSON with a NaN config: %v", err)
	}
}

// TestJSONTrialDecodeNonCanonical: inputs outside the canonical subset
// decode exactly as encoding/json decodes them.
func TestJSONTrialDecodeNonCanonical(t *testing.T) {
	for _, in := range []string{
		` {"epoch":1,"results":[{"id":1,"value":2}]}`,
		`{"Epoch":1,"results":[{"id":1,"value":2}]}`,
		`{"epoch":1,"epoch":2,"results":[]}`,
		`{"epoch":1,"results":null}`,
		`{"epoch":1,"results":[{"id":1,"value":2,"extra":{"a":[1,2]}}]}`,
		`{"epoch":1.5,"results":[]}`,
		`{"epoch":99999999999999999999}`,
		`{"epoch":-0,"worker":0}`,
		`{"epoch":1,"worker":-1}`,
		`{"epoch":1,"results":[{"id":1,"value":1e400}]}`,
		`{"epoch":1,"results":[{"id":1,"value":01}]}`,
		`{"epoch":1,"results":[{"id":1,"value":"2"}]}`,
		`{"epoch":1}  `,
		`{"epoch":1}x`,
		`null`,
		``,
	} {
		var got, want CompleteNReq
		gotErr := got.DecodeFrom([]byte(in))
		wantErr := json.Unmarshal([]byte(in), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: error %v, encoding/json's %v", in, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decoded %+v, encoding/json %+v", in, got, want)
		}
	}
	var f FailNReq
	if err := f.DecodeFrom([]byte(`{"epoch":1,"fails":[{"id":1,"kind":"panic","msg":"a\nb"}]}`)); err != nil || f.Fails[0].Kind != "panic" || f.Fails[0].Msg != "a\nb" {
		t.Errorf("escaped strings: %+v, %v", f, err)
	}
}

// TestJSONTrialDecodeOverwrites: decoding into a used receiver gives
// what a fresh one gives — absent keys zero their fields — while the
// slice storage is reused.
func TestJSONTrialDecodeOverwrites(t *testing.T) {
	var resp LeaseNResp
	full := &LeaseNResp{Epoch: 9, Done: true, RetryMS: 3, Draining: true, SuggestMax: 2,
		Trials: []Trial{{ID: 1, Algo: 1, Config: []float64{1, 2, 3}, DeadlineMS: 5, Speculative: true, Pinned: true}}}
	if err := resp.DecodeFrom(full.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	backing := &resp.Trials[0]
	lean := &LeaseNResp{Epoch: 10, Trials: []Trial{{ID: 2}}}
	if err := resp.DecodeFrom(lean.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&resp, lean) {
		t.Fatalf("reused receiver decoded %+v, want %+v", resp, *lean)
	}
	if &resp.Trials[0] != backing {
		t.Error("trials storage was not reused")
	}
}

// TestJSONTrialEncodeZeroAllocs: each of the five messages encodes into
// a sized buffer without allocating. (A string that needs escaping goes
// through json.Marshal and allocates; the seed holding one is skipped.)
func TestJSONTrialEncodeZeroAllocs(t *testing.T) {
	for _, m := range jsonTrialSeeds() {
		if f, ok := m.(*FailNReq); ok && strings.ContainsAny(f.Fails[len(f.Fails)-1].Msg, "<&\n") {
			continue
		}
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendEncode(buf[:0]) }); allocs != 0 {
			t.Errorf("%T encode: %v allocs/op, want 0", m, allocs)
		}
	}
}

// TestJSONTrialDecodeAllocCeiling: the two JSON messages a pre-v3 trial
// decodes on its hot path — the lease reply on the worker, the
// completion on the server — take at most one allocation per frame
// into a reused receiver.
func TestJSONTrialDecodeAllocCeiling(t *testing.T) {
	const ceiling = 1
	trials := (&LeaseNResp{Epoch: 7, Trials: []Trial{{ID: 4294967297, Algo: 3, Config: []float64{1.5, 2}, DeadlineMS: 1700000000000}}}).AppendEncode(nil)
	complete := (&CompleteNReq{Epoch: 7, Worker: 12, Results: []Result{{ID: 4294967297, Value: 0.000123456789}}}).AppendEncode(nil)
	for _, c := range []struct {
		name string
		pay  []byte
		into Payload
	}{
		{"trials", trials, &LeaseNResp{}},
		{"complete", complete, &CompleteNReq{}},
		{"complete as packed", complete, (*packedCompleteJSON)(&PackedCompleteReq{})},
	} {
		if err := c.into.DecodeFrom(c.pay); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.into.DecodeFrom(c.pay); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s decode: %v allocs/frame, ceiling %d", c.name, allocs, ceiling)
		}
	}
}

// packedCompleteJSON adapts PackedCompleteReq.DecodeJSON to Payload for
// table-driven tests.
type packedCompleteJSON PackedCompleteReq

func (m *packedCompleteJSON) AppendEncode(buf []byte) []byte { return buf }
func (m *packedCompleteJSON) DecodeFrom(buf []byte) error {
	return (*PackedCompleteReq)(m).DecodeJSON(buf)
}

// TestReadFrameAllocatesPayloadOnly: ReadFrame's one allocation is the
// payload — a ~100-byte frame costs well under 512 bytes, not a 4 KiB
// read buffer.
func TestReadFrameAllocatesPayloadOnly(t *testing.T) {
	frame, err := EncodeV(2, TCompleteN, &CompleteNReq{Epoch: 1700000000123, Worker: 77, Results: []Result{{ID: 4294967297, Value: 12.5}, {ID: 4294967298, Value: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(frame) - HeaderSize; n < 80 || n > 120 {
		t.Fatalf("payload is %d bytes, want about 100", n)
	}
	rd := bytes.NewReader(frame)
	read := func() {
		rd.Reset(frame)
		if typ, _, err := ReadFrame(rd); err != nil || typ != TCompleteN {
			t.Fatal(typ, err)
		}
	}
	read()
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 512 {
		t.Errorf("ReadFrame allocated %d B per %d-byte frame, want < 512", per, len(frame))
	}
}

// FuzzJSONTrialCodec is the differential test of the hand-written JSON
// codec against encoding/json. For arbitrary bytes and each of the five
// trial messages, DecodeFrom errors exactly when json.Unmarshal into a
// zero value errors, and otherwise decodes the same value, into a fresh
// receiver and into a used one alike; re-encoding the value gives
// json.Marshal's bytes. The packed views a server decodes pre-v3
// requests into and renders pre-v3 replies from must agree too.
func FuzzJSONTrialCodec(f *testing.F) {
	for _, m := range jsonTrialSeeds() {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(bytes.ReplaceAll(b, []byte(","), []byte(", ")))
	}
	f.Add([]byte(`{"n":1,"n":2}`))
	f.Add([]byte(`{"epoch":1,"fails":[{"id":1,"kind":"timeout","penalty":-0}]}`))
	f.Add([]byte(`{"applied":null,"dropped":[]}`))
	f.Add([]byte(`{"epoch":1,"trials":[{"id":1,"config":[1E+2,-0.0e-0]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		differential[LeaseNReq](t, data, &LeaseNReq{N: 3, Features: []float64{1, 2, 3, 4}})
		differential[LeaseNResp](t, data, &LeaseNResp{Epoch: 1, Done: true, RetryMS: 2, Draining: true, SuggestMax: 3,
			Trials: []Trial{{ID: 1, Algo: 2, Config: []float64{1}, DeadlineMS: 4, Speculative: true, Pinned: true}, {ID: 2}, {ID: 3}}})
		differential[CompleteNReq](t, data, &CompleteNReq{Epoch: 1, Worker: 2, Results: []Result{{ID: 1, Value: 2, Features: []float64{3}}, {ID: 4}}})
		differential[FailNReq](t, data, &FailNReq{Epoch: 1, Fails: []Fail{{ID: 1, Kind: "panic", Penalty: 2, Msg: "m"}, {ID: 2}}})
		differential[AckResp](t, data, &AckResp{Applied: []uint64{1, 2, 3}, Dropped: []uint64{4, 5}})
		packedDifferential(t, data)
	})
}

// differential checks one message type on data; used is a full value
// the reused receiver holds before decoding data.
func differential[T any, P interface {
	*T
	Payload
}](t *testing.T, data []byte, used P) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	var fresh T
	reused := used
	if err := reused.DecodeFrom(P(used).AppendEncode(nil)); err != nil {
		t.Fatalf("%T: own encoding: %v", used, err)
	}
	for _, got := range []P{&fresh, reused} {
		err := got.DecodeFrom(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%T on %q: error %v, encoding/json's %v", got, data, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, P(&want)) {
			t.Fatalf("%T on %q: decoded %+v, encoding/json %+v", got, data, *got, want)
		}
	}
	if wantErr != nil {
		return
	}
	std, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if enc := P(&fresh).AppendEncode(nil); !bytes.Equal(enc, std) {
		t.Fatalf("%T re-encode:\n got %s\nwant %s", &want, enc, std)
	}
}

// packedDifferential checks the packed views: DecodeJSON equals
// json.Unmarshal into the JSON message, converted, and the JSON view of
// a packed reply encodes as json.Marshal of its JSON message.
func packedDifferential(t *testing.T, data []byte) {
	var lease LeaseNReq
	var pl PackedLeaseReq
	if err, jerr := pl.DecodeJSON(data), json.Unmarshal(data, &lease); (err == nil) != (jerr == nil) {
		t.Fatalf("lease DecodeJSON on %q: %v, encoding/json %v", data, err, jerr)
	} else if err == nil && (pl.N != lease.N || !reflect.DeepEqual(pl.Features, lease.Features)) {
		t.Fatalf("lease DecodeJSON on %q: %+v, encoding/json %+v", data, pl, lease)
	}

	var complete CompleteNReq
	pc := PackedCompleteReq{Results: make([]PackedResult, 3)}
	if err, jerr := pc.DecodeJSON(data), json.Unmarshal(data, &complete); (err == nil) != (jerr == nil) {
		t.Fatalf("complete DecodeJSON on %q: %v, encoding/json %v", data, err, jerr)
	} else if err == nil {
		want := PackedCompleteReq{Epoch: complete.Epoch, Worker: complete.Worker}
		for _, r := range complete.Results {
			want.Results = append(want.Results, PackedResult{ID: r.ID, Value: r.Value})
		}
		if pc.Epoch != want.Epoch || pc.Worker != want.Worker || len(pc.Results) != len(want.Results) ||
			len(want.Results) > 0 && !reflect.DeepEqual(pc.Results, want.Results) {
			t.Fatalf("complete DecodeJSON on %q: %+v, want %+v", data, pc, want)
		}
	}

	var fail FailNReq
	var pf PackedFailReq
	if err, jerr := pf.DecodeJSON(data), json.Unmarshal(data, &fail); (err == nil) != (jerr == nil) {
		t.Fatalf("fail DecodeJSON on %q: %v, encoding/json %v", data, err, jerr)
	} else if err == nil {
		if pf.Epoch != fail.Epoch || len(pf.Fails) != len(fail.Fails) {
			t.Fatalf("fail DecodeJSON on %q: %+v, encoding/json %+v", data, pf, fail)
		}
		for i, f := range fail.Fails {
			if want := (PackedFail{ID: f.ID, Kind: FailKind(f.Kind), Penalty: f.Penalty, Msg: f.Msg}); !reflect.DeepEqual(pf.Fails[i], want) {
				t.Fatalf("fail DecodeJSON on %q: fail %d = %+v, want %+v", data, i, pf.Fails[i], want)
			}
		}
	}

	var resp LeaseNResp
	if json.Unmarshal(data, &resp) == nil {
		p := PackedTrials{Epoch: resp.Epoch, Done: resp.Done, Draining: resp.Draining, RetryMS: resp.RetryMS, SuggestMax: resp.SuggestMax}
		for _, tr := range resp.Trials {
			p.Trials = append(p.Trials, PackedTrial{ID: tr.ID, Algo: tr.Algo, DeadlineMS: tr.DeadlineMS, Speculative: tr.Speculative, Pinned: tr.Pinned, Config: tr.Config})
		}
		std, _ := json.Marshal(&resp)
		if enc := p.JSON().AppendEncode(nil); !bytes.Equal(enc, std) {
			t.Fatalf("packed trials as JSON:\n got %s\nwant %s", enc, std)
		}
	}
	var ack AckResp
	if json.Unmarshal(data, &ack) == nil {
		std, _ := json.Marshal(&ack)
		if enc := (&PackedAck{Applied: ack.Applied, Dropped: ack.Dropped}).JSON().AppendEncode(nil); !bytes.Equal(enc, std) {
			t.Fatalf("packed ack as JSON:\n got %s\nwant %s", enc, std)
		}
	}
}

// TestJSONTrialCodecRandom runs the fuzz target's checks over random
// messages of the five types and byte-level mutations of their
// encodings, so the plain test run covers more than the seed corpus.
func TestJSONTrialCodecRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	floats := func() []float64 {
		if r.Intn(3) == 0 {
			return nil
		}
		fs := make([]float64, r.Intn(4))
		for i := range fs {
			switch r.Intn(4) {
			case 0:
				fs[i] = float64(r.Intn(1000))
			case 1:
				fs[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
			case 2:
				fs[i] = math.Float64frombits(r.Uint64())
				if math.IsNaN(fs[i]) || math.IsInf(fs[i], 0) {
					fs[i] = 0
				}
			default:
				fs[i] = []float64{1e-7, 1e21, 1e-6, 5e-324, math.Copysign(0, -1)}[r.Intn(5)]
			}
		}
		return fs
	}
	ids := func() []uint64 {
		if r.Intn(3) == 0 {
			return nil
		}
		v := make([]uint64, r.Intn(4))
		for i := range v {
			v[i] = r.Uint64() >> r.Intn(64)
		}
		return v
	}
	kinds := []string{"panic", "timeout", "invalid", "", "other", "a\"b", "é"}
	msg := func() Payload {
		switch r.Intn(5) {
		case 0:
			return &LeaseNReq{N: r.Intn(100) - 5, Features: floats()}
		case 1:
			m := &LeaseNResp{Epoch: r.Int63() - r.Int63(), Done: r.Intn(2) == 0, RetryMS: r.Int63n(100), Draining: r.Intn(2) == 0, SuggestMax: r.Intn(3)}
			for i := r.Intn(3); i > 0; i-- {
				m.Trials = append(m.Trials, Trial{ID: r.Uint64(), Algo: r.Intn(8), Config: floats(), DeadlineMS: r.Int63n(2) * r.Int63(), Speculative: r.Intn(2) == 0, Pinned: r.Intn(2) == 0})
			}
			return m
		case 2:
			m := &CompleteNReq{Epoch: r.Int63(), Worker: r.Uint64() >> r.Intn(64)}
			for i := r.Intn(4) - 1; i >= 0; i-- {
				m.Results = append(m.Results, Result{ID: r.Uint64(), Value: r.ExpFloat64(), Features: floats()})
			}
			return m
		case 3:
			m := &FailNReq{Epoch: r.Int63()}
			for i := r.Intn(4) - 1; i >= 0; i-- {
				m.Fails = append(m.Fails, Fail{ID: r.Uint64(), Kind: kinds[r.Intn(len(kinds))], Penalty: float64(r.Intn(3)), Msg: kinds[r.Intn(len(kinds))]})
			}
			return m
		default:
			return &AckResp{Applied: ids(), Dropped: ids()}
		}
	}
	alphabet := []byte(`{}[],:"-+.eE0123456789 ntrufalsx\`)
	check := func(data []byte) {
		differential[LeaseNReq](t, data, &LeaseNReq{N: 3, Features: []float64{1, 2}})
		differential[LeaseNResp](t, data, &LeaseNResp{Epoch: 1, Trials: []Trial{{ID: 1, Config: []float64{1}}, {ID: 2}}})
		differential[CompleteNReq](t, data, &CompleteNReq{Epoch: 1, Results: []Result{{ID: 1, Features: []float64{3}}, {ID: 4}}})
		differential[FailNReq](t, data, &FailNReq{Epoch: 1, Fails: []Fail{{ID: 1, Kind: "panic", Msg: "m"}}})
		differential[AckResp](t, data, &AckResp{Applied: []uint64{1, 2}, Dropped: []uint64{4}})
		packedDifferential(t, data)
	}
	for i := 0; i < 2000; i++ {
		m := msg()
		std, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if enc := m.AppendEncode(nil); !bytes.Equal(enc, std) {
			t.Fatalf("%T encode:\n got %s\nwant %s", m, enc, std)
		}
		check(std)
		for k := 0; k < 3; k++ {
			mut := bytes.Clone(std)
			switch j := r.Intn(len(mut)); r.Intn(3) {
			case 0:
				mut[j] = alphabet[r.Intn(len(alphabet))]
			case 1:
				mut = append(mut[:j], mut[j+1:]...)
			default:
				mut = append(mut[:j], append([]byte{alphabet[r.Intn(len(alphabet))]}, mut[j:]...)...)
			}
			check(mut)
		}
	}
}
