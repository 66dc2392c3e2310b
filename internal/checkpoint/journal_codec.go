package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/cjson"
)

// The hand-written codec of journal lines. Through encoding/json's
// reflection a record costs microseconds and several allocations each
// way; a durable engine pays the encode on every trial it journals and
// a resume pays the decode on every record on disk.
//
// appendLine writes exactly the bytes json.Marshal(rec) framed as
// "%08x %s\n" writes: the same field order and omitempty rules, null for
// a nil config, F's "NaN"/"+Inf"/"-Inf" strings, and the rest as package
// cjson writes it. recordDecoder reads cjson's canonical subset plus a
// null config, and decodes anything else again with json.Unmarshal into
// a zeroed Record, so results and errors are encoding/json's.
// FuzzJournalRecord pins both directions against encoding/json, and
// FuzzReadJournal pins ReadJournal against the reflection-based reader
// it replaced.

// appendLine appends rec's journal line, crc32hex SP json LF, to buf.
func appendLine(buf []byte, rec *Record) []byte {
	start := len(buf)
	e := cjson.Enc{B: append(buf, "00000000 "...)}
	appendRecord(&e, rec)
	buf = e.B
	const hex = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(buf[start+9:])
	for i := start + 7; i >= start; i-- {
		buf[i] = hex[sum&0xf]
		sum >>= 4
	}
	return append(buf, '\n')
}

func appendRecord(e *cjson.Enc, r *Record) {
	e.Raw(`{"iter":`)
	e.Int(int64(r.Iter))
	e.Raw(`,"algo":`)
	e.Str(r.Algo)
	e.Raw(`,"config":`)
	if r.Config == nil {
		e.Raw("null")
	} else {
		e.B = append(e.B, '[')
		for i, f := range r.Config {
			e.Comma(i)
			appendF(e, f)
		}
		e.B = append(e.B, ']')
	}
	e.Raw(`,"value":`)
	appendF(e, r.Value)
	if r.FailKind != "" {
		e.Raw(`,"fail":`)
		e.Str(r.FailKind)
	}
	if r.Trial != 0 {
		e.Raw(`,"trial":`)
		e.Uint(r.Trial)
	}
	if r.Spec {
		e.Raw(`,"spec":true`)
	}
	if r.Pinned {
		e.Raw(`,"pinned":true`)
	}
	if r.Drift != "" {
		e.Raw(`,"drift":`)
		e.Str(r.Drift)
	}
	if r.DriftSeq != 0 {
		e.Raw(`,"dseq":`)
		e.Uint(r.DriftSeq)
	}
	if r.DriftArm != 0 {
		e.Raw(`,"darm":`)
		e.Int(int64(r.DriftArm))
	}
	if r.DriftKeep != 0 { // NaN too: it is not empty to encoding/json
		e.Raw(`,"dkeep":`)
		appendF(e, r.DriftKeep)
	}
	if r.DriftProbes != 0 {
		e.Raw(`,"dprobes":`)
		e.Int(int64(r.DriftProbes))
	}
	if r.DriftP1 {
		e.Raw(`,"dp1":true`)
	}
	e.B = append(e.B, '}')
}

// appendF writes f as F.MarshalJSON does.
func appendF(e *cjson.Enc, f F) {
	switch v := float64(f); {
	case math.IsNaN(v):
		e.Raw(`"NaN"`)
	case math.IsInf(v, 1):
		e.Raw(`"+Inf"`)
	case math.IsInf(v, -1):
		e.Raw(`"-Inf"`)
	default:
		e.Float64(v)
	}
}

// readF reads an F as F.UnmarshalJSON does, in the canonical subset.
func readF(d *cjson.Dec) F {
	if d.Peek() != '"' {
		return F(d.Float64())
	}
	switch string(d.Str()) {
	case "NaN":
		return F(math.NaN())
	case "+Inf":
		return F(math.Inf(1))
	case "-Inf":
		return F(math.Inf(-1))
	}
	d.Fail()
	return 0
}

// parseCRC reads a line's checksum field. Eight hex digits, the form
// appendLine writes, are parsed here; any other field goes through
// fmt.Sscanf's "%08x", which has always defined what the reader
// accepts (it skips leading spaces and ignores anything after the
// digits).
func parseCRC(field []byte) (uint32, bool) {
	var sum uint32
	for _, c := range field {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			var lax uint32
			_, err := fmt.Sscanf(string(field), "%08x", &lax)
			return lax, err == nil
		}
		sum = sum<<4 | uint32(c)
	}
	return sum, true
}

// configChunk is how many config values one shared backing array holds.
const configChunk = 4096

// recordDecoder decodes the records of one read, so they share storage:
// strings are interned, and configs are cut from shared backing arrays,
// each capped at its own length so an append to one cannot reach the
// next.
type recordDecoder struct {
	names  map[string]string
	values []F
}

// decode decodes one line body into a zero rec.
func (rd *recordDecoder) decode(body []byte, rec *Record) error {
	d := cjson.Dec{B: body}
	d.Object(func(k []byte) {
		switch string(k) {
		case "iter":
			rec.Iter = d.Int()
		case "algo":
			rec.Algo = rd.intern(d.Str())
		case "config":
			rec.Config = rd.config(&d)
		case "value":
			rec.Value = readF(&d)
		case "fail":
			rec.FailKind = rd.intern(d.Str())
		case "trial":
			rec.Trial = d.Uint64()
		case "spec":
			rec.Spec = d.Bool()
		case "pinned":
			rec.Pinned = d.Bool()
		case "drift":
			rec.Drift = rd.intern(d.Str())
		case "dseq":
			rec.DriftSeq = d.Uint64()
		case "darm":
			rec.DriftArm = d.Int()
		case "dkeep":
			rec.DriftKeep = readF(&d)
		case "dprobes":
			rec.DriftProbes = d.Int()
		case "dp1":
			rec.DriftP1 = d.Bool()
		default:
			d.Fail()
		}
	})
	if d.OK() {
		return nil
	}
	return unmarshalRecord(body, rec)
}

// unmarshalRecord decodes body with encoding/json into *rec. It
// unmarshals into a Record of its own, so that only this fallback, not
// every decode, moves a Record to the heap.
func unmarshalRecord(body []byte, rec *Record) error {
	var r Record
	err := json.Unmarshal(body, &r)
	*rec = r
	return err
}

func (rd *recordDecoder) intern(b []byte) string {
	if s, ok := rd.names[string(b)]; ok {
		return s
	}
	if rd.names == nil {
		rd.names = make(map[string]string)
	}
	s := string(b)
	rd.names[s] = s
	return s
}

// config reads a config list, or null, into the free tail of the shared
// backing array. A list that outgrows the tail ends up in an array of
// its own.
func (rd *recordDecoder) config(d *cjson.Dec) []F {
	if d.Null() {
		return nil
	}
	if cap(rd.values)-len(rd.values) < configChunk/16 {
		rd.values = make([]F, 0, configChunk)
	}
	cfg := rd.values[len(rd.values):]
	for n := 0; d.Next(n); n++ {
		cfg = append(cfg, readF(d))
	}
	if len(cfg) <= cap(rd.values)-len(rd.values) {
		rd.values = rd.values[:len(rd.values)+len(cfg)]
	}
	return cfg[:len(cfg):len(cfg)]
}
