package checkpoint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFNonFiniteRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		data, err := F(v).MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got F
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-tripped to %v", got)
			}
		} else if float64(got) != v {
			t.Errorf("%v round-tripped to %v", v, got)
		}
	}
	var f F
	if err := f.UnmarshalJSON([]byte(`"pancake"`)); err == nil {
		t.Error("unmarshal of an unknown string succeeded")
	}
}

func TestFloatsNilPreserved(t *testing.T) {
	if Floats(nil) != nil || Unfloats(nil) != nil {
		t.Error("nil slices should stay nil through conversion")
	}
	in := []float64{1, math.Inf(1)}
	out := Unfloats(Floats(in))
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed %v to %v", in, out)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Errorf("read back %q", data)
	}
	// No temp files may be left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the target", len(entries))
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	payload := []byte(`{"hello":"world","n":3}`)
	data, err := EncodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload round-tripped to %s", got)
	}
	if _, err := EncodeSnapshot([]byte(`{"un终`)); err == nil {
		t.Error("encoding invalid JSON succeeded")
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	payload := []byte(`{"counts":[1,2,3],"value":0.5}`)
	data, err := EncodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation at any point must fail, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("decoding a snapshot truncated to %d bytes succeeded", cut)
		}
	}
	// A flipped byte anywhere must fail: either the frame breaks or the
	// checksum catches it.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if got, err := DecodeSnapshot(mut); err == nil && string(got) != string(payload) {
			t.Fatalf("flip at byte %d yielded a different payload without error: %s", i, got)
		}
	}
	// A future version must be refused.
	future := []byte(fmt.Sprintf(`{"version":%d,"crc32":0,"payload":{}}`, Version+1))
	if _, err := DecodeSnapshot(future); err == nil {
		t.Error("decoding a future-version snapshot succeeded")
	}
}

func TestJournalAppendRead(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Iter: 0, Algo: "a", Config: []F{1, 2}, Value: 3.5},
		{Iter: 1, Algo: "b", Value: F(math.Inf(1)), FailKind: "timeout"},
		{Iter: 2, Algo: "a", Config: []F{F(math.NaN()), 0}, Value: 4},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(WalPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Iter != want[i].Iter || got[i].Algo != want[i].Algo || got[i].FailKind != want[i].FailKind {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if !math.IsNaN(float64(got[2].Config[0])) {
		t.Errorf("NaN config value read back as %v", got[2].Config[0])
	}
}

func TestJournalReadStopsAtDamage(t *testing.T) {
	dir := t.TempDir()
	path := WalPath(dir, 0)
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Iter: i, Algo: "a", Value: F(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	cases := []struct {
		name   string
		mangle func(data []byte) []byte
		want   int
	}{
		{"torn final line", func(d []byte) []byte { return d[:len(d)-7] }, 2},
		{"flipped byte in last body", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)-3] ^= 0x01
			return d
		}, 2},
		{"empty line between records", func(d []byte) []byte {
			lines := strings.SplitAfter(string(d), "\n")
			return []byte(lines[0] + "\n" + strings.Join(lines[1:], ""))
		}, 3},
		{"garbage after records", func(d []byte) []byte { return append(d, []byte("not a journal line\n")...) }, 3},
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, c.mangle(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != c.want {
				t.Errorf("read %d records, want %d", len(recs), c.want)
			}
			for i, r := range recs {
				if r.Iter != i {
					t.Errorf("record %d has iteration %d", i, r.Iter)
				}
			}
		})
	}
}

func TestReadJournalMissingFile(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.log"))
	if err != nil || recs != nil {
		t.Errorf("missing journal: got %v, %v; want empty, nil", recs, err)
	}
}

// writeGen writes a snapshot and a journal covering [iter, iter+n).
func writeGen(t *testing.T, dir string, iter, n int) {
	t.Helper()
	payload := []byte(fmt.Sprintf(`{"iter":%d}`, iter))
	if err := WriteSnapshot(dir, iter, payload); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, iter)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := iter; i < iter+n; i++ {
		if err := j.Append(Record{Iter: i, Algo: "a", Value: F(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 10)
	writeGen(t, dir, 10, 10)
	writeGen(t, dir, 20, 10)
	if got := Generations(dir); !reflect.DeepEqual(got, []int{10, 20}) {
		t.Errorf("snapshot generations after prune: %v", got)
	}
	if got := JournalGenerations(dir); !reflect.DeepEqual(got, []int{10, 20}) {
		t.Errorf("journal generations after prune: %v", got)
	}
}

func TestLoadLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 5)
	writeGen(t, dir, 5, 5)

	// Healthy: newest wins.
	_, iter, err := LoadLatest(dir)
	if err != nil || iter != 5 {
		t.Fatalf("LoadLatest: iter %d, err %v", iter, err)
	}

	// Corrupt the newest: previous generation must load, and the chained
	// journals must still cover everything from it onward.
	data, err := os.ReadFile(SnapPath(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(SnapPath(dir, 5), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, iter, err = LoadLatest(dir)
	if err != nil || iter != 0 {
		t.Fatalf("LoadLatest after corruption: iter %d, err %v", iter, err)
	}
	recs, _ := ReadJournalsSince(dir, 0)
	if len(recs) != 10 {
		t.Fatalf("chained journals replay %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Iter != i {
			t.Errorf("replay record %d has iteration %d", i, r.Iter)
		}
	}

	// Corrupt both: ErrNoSnapshot.
	data, err = os.ReadFile(SnapPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(dir, 0), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLatest(dir); err == nil {
		t.Error("LoadLatest with every snapshot damaged succeeded")
	}
}

func TestReadJournalsSinceSkipsOlderRecords(t *testing.T) {
	dir := t.TempDir()
	writeGen(t, dir, 0, 10)
	writeGen(t, dir, 10, 4)
	recs, _ := ReadJournalsSince(dir, 10)
	if len(recs) != 4 {
		t.Fatalf("replay from 10 yields %d records, want 4", len(recs))
	}
	if recs[0].Iter != 10 || recs[3].Iter != 13 {
		t.Errorf("replay range %d..%d, want 10..13", recs[0].Iter, recs[3].Iter)
	}
}

// FuzzSnapshotDecode asserts the decoder never panics and never returns a
// payload that fails validation, no matter the input bytes.
func FuzzSnapshotDecode(f *testing.F) {
	valid, err := EncodeSnapshot([]byte(`{"counts":[1,2,3],"value":0.5}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"crc32":0,"payload":{}}`))
	f.Add([]byte(`{"version":99,"crc32":0,"payload":null}`))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Whatever decodes must be self-consistent: re-encoding and
		// re-decoding yields the same payload.
		again, err := EncodeSnapshot(payload)
		if err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		back, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if string(back) != string(payload) {
			t.Fatalf("payload changed across re-encode: %s vs %s", payload, back)
		}
	})
}
