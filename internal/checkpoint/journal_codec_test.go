package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readJournalReference is the reflection-based journal reader
// ReadJournal replaced, kept verbatim: ReadJournal must return what it
// returns for any file (FuzzReadJournal).
func readJournalReference(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()

	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var sum uint32
		sp := strings.IndexByte(line, ' ')
		if sp != 8 {
			break
		}
		if _, err := fmt.Sscanf(line[:sp], "%08x", &sum); err != nil {
			break
		}
		body := line[sp+1:]
		if crc32.ChecksumIEEE([]byte(body)) != sum {
			break
		}
		var rec Record
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			break
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// referenceLine is the journal line the reflection-based writer
// produced for rec.
func referenceLine(t testing.TB, rec Record) string {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(body), body)
}

// dump renders v exactly, NaN included: two values print alike only
// if every field, sign of zero and nil-ness of slices agrees.
func dump(v any) string { return fmt.Sprintf("%#v", v) }

// compatRecords are the records testdata/compat-journal.log holds, as
// the reflection-based writer wrote them: finite, NaN and ±Inf values,
// an empty and a nil config, failures, speculative and pinned trials,
// drift sentinels, and strings that need escaping.
func compatRecords() []Record {
	nan, inf := F(math.NaN()), F(math.Inf(1))
	return []Record{
		{Iter: 0, Algo: "fsbndm", Config: []F{1, 2.5, -3}, Value: 0.125},
		{Iter: 1, Algo: "hash3", Config: []F{}, Value: 1e-7},
		{Iter: 2, Algo: "fsbndm", Config: []F{nan, inf, -inf, F(math.Copysign(0, -1))}, Value: 12345678901234567890},
		{Iter: 3, Algo: "hash3", Config: []F{0.1}, Value: inf, FailKind: "timeout"},
		{Iter: 4, Algo: "hash3", Value: nan, FailKind: "panic"},
		{Iter: 5, Algo: "fsbndm", Config: []F{7}, Value: -0.5, Trial: 17, Spec: true},
		{Iter: 6, Algo: "fsbndm", Config: []F{7}, Value: 2.75, Trial: 1<<40 + 3, Pinned: true},
		{Iter: 6, Drift: DriftDecay, DriftSeq: 1, DriftArm: 1, DriftKeep: 0.25, DriftProbes: 4, DriftP1: true},
		{Iter: 7, Algo: "a<b&c>", Config: []F{1e21, -1e-300}, Value: -inf, FailKind: "invalid", Trial: 18},
		{Iter: 8, Drift: DriftRefork, DriftSeq: 2, DriftArm: -1, DriftKeep: nan},
		{Iter: 9, Algo: "héllo \"q\"", Config: []F{5e-324, 1e20, 123456.789}, Value: 1.7976931348623157e308, Trial: 19},
	}
}

// TestJournalCompatFixture reads a journal the reflection-based writer
// wrote and checks it reads back as written and re-encodes byte for
// byte, through appendLine and through a Journal.
func TestJournalCompatFixture(t *testing.T) {
	const path = "testdata/compat-journal.log"
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := compatRecords(); dump(got) != dump(want) {
		t.Fatalf("fixture reads back as\n%s\nwant\n%s", dump(got), dump(want))
	}
	var lines []byte
	for i := range got {
		lines = appendLine(lines, &got[i])
	}
	if !bytes.Equal(lines, orig) {
		t.Fatalf("fixture re-encodes as\n%s\nwant\n%s", lines, orig)
	}

	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if err := j.AppendBuffered(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, orig) {
		t.Fatalf("Journal writes\n%s\nwant\n%s", written, orig)
	}
}

// TestReadJournalsSinceMaxTrial checks the highest trial ID covers
// every generation read, records below iter and records the
// monotonic clip drops included.
func TestReadJournalsSinceMaxTrial(t *testing.T) {
	dir := t.TempDir()
	write := func(gen int, recs ...Record) {
		j, err := OpenJournal(dir, gen)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, Record{Iter: 0, Algo: "a", Trial: 90}, Record{Iter: 1, Algo: "a", Trial: 7})
	write(2, Record{Iter: 2, Algo: "a", Trial: 8}, Record{Iter: 2, Algo: "a", Trial: 95})
	recs, maxTrial := ReadJournalsSince(dir, 2)
	if len(recs) != 1 || recs[0].Trial != 8 {
		t.Errorf("replay from 2 = %+v, want the single record of trial 8", recs)
	}
	if maxTrial != 95 {
		t.Errorf("max trial %d, want 95", maxTrial)
	}
}

// FuzzJournalRecord checks the record codec against encoding/json: a
// body decodes exactly when json.Unmarshal into a zero Record succeeds,
// to the same value, and the value re-encodes to the line
// json.Marshal and the "%08x %s\n" framing produce.
func FuzzJournalRecord(f *testing.F) {
	for _, r := range compatRecords() {
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		`{"iter":1,"algo":"a","config":[1,2],"value":3}`,
		`{"iter":1, "algo":"a","config":[1,2],"value":3}`,
		`{"ITER":1,"algo":"a","config":null,"value":"NaN"}`,
		`{"iter":1,"iter":2,"algo":"a","config":null,"value":0}`,
		`{"iter":1,"algo":null,"config":[],"value":null}`,
		`{"iter":1.5,"algo":"a","config":null,"value":0}`,
		`{"iter":1,"algo":"\u0061","config":null,"value":1e400}`,
		`{"iter":1,"algo":"a","config":["nan"],"value":0}`,
		`{"iter":1,"algo":"a","config":null,"value":"+Inf","extra":{"x":[1]}}`,
		`{"iter":-0,"algo":"a","config":[-0,0e5,1E-2],"value":0,"trial":18446744073709551615}`,
		`{"iter":1,"algo":"a","config":null,"value":0,"trial":18446744073709551616}`,
		`{"iter":0,"algo":"","config":null,"value":0,"drift":"decay","dseq":3,"darm":-2,"dkeep":"-Inf","dprobes":1,"dp1":false}`,
		`[]`, `null`, `{}`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want Record
		wantErr := json.Unmarshal(body, &want)
		var got Record
		gotErr := (&recordDecoder{}).decode(body, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode %q: error %v, encoding/json's %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if dump(got) != dump(want) {
			t.Fatalf("decode %q:\n%s\nencoding/json:\n%s", body, dump(got), dump(want))
		}
		if line, ref := appendLine(nil, &got), referenceLine(t, want); string(line) != ref {
			t.Fatalf("encode %s:\n%s\nwant\n%s", dump(got), line, ref)
		}
	})
}

// FuzzReadJournal checks ReadJournal returns what the reflection-based
// reader returns for any file: the same records up to the same first
// damaged line.
func FuzzReadJournal(f *testing.F) {
	fixture, err := os.ReadFile("testdata/compat-journal.log")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-9])                                                     // torn final line
	f.Add(append(bytes.Clone(lines[0]), append([]byte("\n\r\n \t\n"), lines[1]...)...)) // blank lines
	f.Add(append(bytes.ToUpper(lines[0][:8]), lines[0][8:]...))                         // uppercase CRC
	f.Add(append([]byte("d984ca4 "), lines[0][8:]...))                                  // short CRC
	f.Add(append([]byte("d984cazz"), lines[0][8:]...))                                  // bad CRC digits
	f.Add(append([]byte("\td984ca4"), lines[0][8:]...))                                 // lenient CRC field
	f.Add(append(bytes.Clone(lines[0]), []byte("00000000 {}\n")...))                    // wrong checksum
	f.Add(bytes.Join([][]byte{lines[7], lines[9], lines[2]}, nil))                      // drift sentinels, NaN and Inf
	f.Add(bytes.ReplaceAll(fixture, []byte("\n"), []byte("\r\n")))
	f.Add([]byte("not a journal line\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantErr := readJournalReference(path)
		got, gotErr := ReadJournal(path)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("read errors %v, reference %v", gotErr, wantErr)
		}
		if dump(got) != dump(want) {
			t.Fatalf("read %q:\n%s\nreference:\n%s", data, dump(got), dump(want))
		}
	})
}

// benchRecords returns n records shaped like a sharded tenant's
// journal: a few algorithms, short configs, trial IDs, some speculative.
func benchRecords(n int) []Record {
	algos := []string{"plain", "tuned", "other", "blocked"}
	recs := make([]Record, n)
	for i := range recs {
		a := i % len(algos)
		cfg := make([]F, a)
		for k := range cfg {
			cfg[k] = F(float64(i%97)/7 + float64(k))
		}
		recs[i] = Record{Iter: i, Algo: algos[a], Config: cfg, Value: F(1 + float64(i%13)/3),
			Trial: 1<<32 + uint64(i), Spec: i%5 == 0}
	}
	return recs
}

// writeBenchJournal writes recs to dir as generations of genSize
// records each.
func writeBenchJournal(tb testing.TB, dir string, recs []Record, genSize int) {
	tb.Helper()
	var j *Journal
	for i, r := range recs {
		if i%genSize == 0 {
			if err := j.Close(); err != nil {
				tb.Fatal(err)
			}
			var err error
			if j, err = OpenJournal(dir, i); err != nil {
				tb.Fatal(err)
			}
		}
		if err := j.AppendBuffered(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestAppendBufferedAllocCeiling pins the write side: the line is built
// in the journal's reused buffer, so a record costs at most the copy of
// the Record argument's escape (the reflection-based writer made 8).
func TestAppendBufferedAllocCeiling(t *testing.T) {
	const ceiling = 1
	j, err := OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs := benchRecords(64)
	var i int
	allocs := testing.AllocsPerRun(500, func() {
		if err := j.AppendBuffered(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("AppendBuffered: %v allocs per record", allocs)
	if allocs > ceiling {
		t.Errorf("AppendBuffered: %v allocs per record, ceiling %d", allocs, ceiling)
	}
}

// TestReadJournalAllocCeiling pins the read side on a canonical
// journal: records decode without reflection, strings are interned and
// configs share backing arrays, leaving the record slice's growth and
// the file and scanner set-up (the reflection-based reader made about
// 15 per record).
func TestReadJournalAllocCeiling(t *testing.T) {
	const records, perRecord, constant = 1000, 2, 64
	dir := t.TempDir()
	writeBenchJournal(t, dir, benchRecords(records), records)
	path := WalPath(dir, 0)
	allocs := testing.AllocsPerRun(20, func() {
		recs, err := ReadJournal(path)
		if err != nil || len(recs) != records {
			t.Fatalf("read %d records, %v", len(recs), err)
		}
	})
	t.Logf("ReadJournal of %d records: %v allocs", records, allocs)
	if allocs > perRecord*records+constant {
		t.Errorf("ReadJournal of %d records: %v allocs, ceiling %d", records, allocs, perRecord*records+constant)
	}
}

func benchmarkAppend(b *testing.B, sync bool) {
	j, err := OpenJournal(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	appendRec := j.AppendBuffered
	if sync {
		appendRec = j.Append
	}
	recs := benchRecords(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendRec(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend is one fsynced append: a sequential tuner's
// per-iteration cost.
func BenchmarkJournalAppend(b *testing.B) { benchmarkAppend(b, true) }

// BenchmarkJournalAppendBuffered is one append without fsync: a batch
// writer's per-record cost.
func BenchmarkJournalAppendBuffered(b *testing.B) { benchmarkAppend(b, false) }

// BenchmarkReadJournal is a resume's journal pass over two generations
// of 950 records each.
func BenchmarkReadJournal(b *testing.B) {
	const records, genSize = 1900, 950
	dir := b.TempDir()
	writeBenchJournal(b, dir, benchRecords(records), genSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, maxTrial := ReadJournalsSince(dir, 0)
		if len(recs) != records || maxTrial == 0 {
			b.Fatalf("read %d records, max trial %d", len(recs), maxTrial)
		}
	}
}
