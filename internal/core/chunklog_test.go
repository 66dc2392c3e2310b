package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
	"repro/internal/param"
)

// boundaryLens are the log lengths around a chunk of c entries: empty,
// one entry, either side of the first chunk boundary, and several
// chunks plus a partial one.
func boundaryLens(c int) []int { return []int{0, 1, c - 1, c, c + 1, 5*c + 3} }

// TestChunkLogMatchesSlice appends to a chunkLog and a plain slice side
// by side, for both entry types the tuner logs, and compares every
// read at each boundary length.
func TestChunkLogMatchesSlice(t *testing.T) {
	var recs chunkLog[Record]
	var vals chunkLog[float64]
	for _, c := range []int{recs.chunkLen(), vals.chunkLen()} {
		for _, n := range boundaryLens(c) {
			var lr chunkLog[Record]
			var lv chunkLog[float64]
			var refR []Record
			var refV []float64
			for i := 0; i < n; i++ {
				r := Record{Iteration: i, Algo: i % 3, Config: param.Config{float64(i)}, Value: float64(i) / 2}
				lr.append(r)
				lv.append(r.Value)
				refR = append(refR, r)
				refV = append(refV, r.Value)
			}
			if lr.len() != n || lv.len() != n {
				t.Fatalf("n=%d: len = %d, %d", n, lr.len(), lv.len())
			}
			if got := lv.slice(); fmt.Sprint(got) != fmt.Sprint(refV) || len(got) != n {
				t.Fatalf("n=%d: float log differs from slice", n)
			}
			if got := lr.slice(); fmt.Sprint(got) != fmt.Sprint(refR) || len(got) != n {
				t.Fatalf("n=%d: record log differs from slice", n)
			}
			for _, k := range []int{0, 1, stateHistoryTail, c, n + 1} {
				want := refV[max(0, n-k):]
				if got := lv.appendTail(nil, k); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
					t.Fatalf("n=%d: tail %d = %v, want %v", n, k, got, want)
				}
			}
		}
	}
}

// logRef is the plain-slice reference of a tuner's logs.
type logRef struct {
	recs   []Record
	values [][]float64
}

func newLogRef(algos int) *logRef { return &logRef{values: make([][]float64, algos)} }

func (r *logRef) step(tu *Tuner, m Measure) {
	rec := tu.Step(m)
	r.recs = append(r.recs, rec)
	r.values[rec.Algo] = append(r.values[rec.Algo], rec.Value)
}

// check compares History, ValuesOf, WriteHistoryCSV and the snapshot's
// history tail with the reference.
func (r *logRef) check(t *testing.T, tu *Tuner, what string) {
	t.Helper()
	h := tu.History()
	if len(h) != len(r.recs) {
		t.Fatalf("%s: History has %d records, want %d", what, len(h), len(r.recs))
	}
	for i, got := range h {
		want := r.recs[i]
		if got.Iteration != want.Iteration || got.Algo != want.Algo || got.Value != want.Value ||
			got.Failed != want.Failed || !got.Config.Equal(want.Config) {
			t.Fatalf("%s: History[%d] = %+v, want %+v", what, i, got, want)
		}
	}
	for a, want := range r.values {
		got := tu.ValuesOf(a)
		if len(got) != len(want) {
			t.Fatalf("%s: ValuesOf(%d) has %d values, want %d", what, a, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: ValuesOf(%d)[%d] = %v, want %v", what, a, i, got[i], want[i])
			}
		}
	}
	var csv, wantCSV bytes.Buffer
	if err := tu.WriteHistoryCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wantCSV.WriteString("iteration,algorithm,value,config\n")
	for _, rec := range r.recs {
		fmt.Fprintf(&wantCSV, "%d,%s,%s,%q\n", rec.Iteration, tu.algos[rec.Algo].Name,
			strconv.FormatFloat(rec.Value, 'g', -1, 64), tu.algos[rec.Algo].space().Format(rec.Config))
	}
	if csv.String() != wantCSV.String() {
		t.Fatalf("%s: WriteHistoryCSV differs from the reference", what)
	}
	payload, err := tu.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	var st tunerState
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	tail := r.recs[max(0, len(r.recs)-stateHistoryTail):]
	if len(st.HistoryTail) != len(tail) {
		t.Fatalf("%s: HistoryTail has %d records, want %d", what, len(st.HistoryTail), len(tail))
	}
	for i, got := range st.HistoryTail {
		want := tail[i]
		if got.Iteration != want.Iteration || got.Algo != want.Algo || float64(got.Value) != want.Value ||
			!param.Config(checkpoint.Unfloats(got.Config)).Equal(want.Config) {
			t.Fatalf("%s: HistoryTail[%d] = %+v, want %+v", what, i, got, want)
		}
	}
}

// TestTunerLogsMatchSlice runs a checkpointed tuner to each boundary
// length of the record chunk and checks its logs against a plain-slice
// reference; then resumes it — the journal replays every iteration
// through the log — and checks again, before and after another chunk's
// worth of iterations.
func TestTunerLogsMatchSlice(t *testing.T) {
	const seed = 5
	var recs chunkLog[Record]
	for _, n := range boundaryLens(recs.chunkLen()) {
		dir := t.TempDir()
		algos, m := syntheticAlgos()
		tu := mustNew(t, algos, nominal.NewEpsilonGreedy(0.2), DefaultFactory, seed, WithCheckpoint(dir, 0))
		ref := newLogRef(len(algos))
		for i := 0; i < n; i++ {
			ref.step(tu, m)
		}
		ref.check(t, tu, fmt.Sprintf("n=%d", n))

		tu, err := resumeSynthetic(t, dir, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref.check(t, tu, fmt.Sprintf("n=%d resumed", n))
		for i := 0; i <= recs.chunkLen(); i++ {
			ref.step(tu, m)
		}
		ref.check(t, tu, fmt.Sprintf("n=%d resumed and run on", n))
	}
}

// TestValueTimelineBoundaries checks ValuesOf against a reference at
// the boundary lengths of the float chunk, on a one-arm tuner whose
// timeline grows by one value per iteration.
func TestValueTimelineBoundaries(t *testing.T) {
	var vals chunkLog[float64]
	algos := []Algorithm{{Name: "only", Space: param.NewSpace(param.NewInterval("x", 0, 10)), Init: param.Config{1}}}
	m := func(_ int, cfg param.Config) float64 { return 1 + cfg[0] }
	for _, n := range boundaryLens(vals.chunkLen()) {
		tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1)
		ref := newLogRef(1)
		for i := 0; i < n; i++ {
			ref.step(tu, m)
		}
		ref.check(t, tu, fmt.Sprintf("n=%d", n))
	}
}

// TestWithoutHistoryTimelineBound: with history off, a timeline keeps
// every value up to 2×DefaultValuesTail, and from then on the most
// recent values only — never fewer than DefaultValuesTail, never more
// than 2×DefaultValuesTail.
func TestWithoutHistoryTimelineBound(t *testing.T) {
	algos := []Algorithm{{Name: "only", Space: param.NewSpace(param.NewInterval("x", 0, 10)), Init: param.Config{1}}}
	m := func(_ int, cfg param.Config) float64 { return 1 + cfg[0] }
	tu := mustNew(t, algos, nominal.NewRoundRobin(), DefaultFactory, 1, WithoutHistory())
	var all []float64
	for i := 0; i < 6*DefaultValuesTail+7; i++ {
		all = append(all, tu.Step(m).Value)
		got := tu.ValuesOf(0)
		n := len(got)
		switch {
		case len(all) <= 2*DefaultValuesTail && n != len(all):
			t.Fatalf("after %d values the timeline holds %d, want all", len(all), n)
		case n < min(len(all), DefaultValuesTail) || n > 2*DefaultValuesTail:
			t.Fatalf("after %d values the timeline holds %d, want %d..%d", len(all), n, DefaultValuesTail, 2*DefaultValuesTail)
		}
		if i%97 == 0 || i == 2*DefaultValuesTail {
			want := all[len(all)-n:]
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("after %d values: timeline[%d] = %v, want the most recent values", len(all), k, got[k])
				}
			}
		}
	}
	if len(tu.History()) != 0 {
		t.Fatal("WithoutHistory recorded history")
	}
}

// TestLogGrowthAllocBounded measures the bytes each LeaseN(16)+CompleteN
// batch allocates with history on, in a window starting at 1k logged
// trials and one starting at 200k. The largest batch of either window
// is the one that grows the logs; with chunks that is at most a chunk
// per log, whatever the length. A log kept as one slice would instead
// copy itself whole — at 200k trials, megabytes in a single batch.
func TestLogGrowthAllocBounded(t *testing.T) {
	const batch, window = 16, 4000
	ct := hotPathEngine(t)
	results := make([]TrialResult, 0, batch)
	var ms runtime.MemStats
	worst := func() uint64 {
		var w uint64
		runtime.ReadMemStats(&ms)
		prev := ms.TotalAlloc
		for i := 0; i < window; i++ {
			results = leaseCompleteBatch(t, ct, batch, results)
			runtime.ReadMemStats(&ms)
			w = max(w, ms.TotalAlloc-prev)
			prev = ms.TotalAlloc
		}
		return w
	}
	for ct.Iterations() < 1000 {
		results = leaseCompleteBatch(t, ct, batch, results)
	}
	early := worst()
	for ct.Iterations() < 200_000 {
		results = leaseCompleteBatch(t, ct, batch, results)
	}
	late := worst()
	ratio := float64(late) / float64(early)
	t.Logf("largest batch: %d B from 1k logged trials, %d B from 200k (ratio %.2f)", early, late, ratio)
	if ratio > 1.5 {
		t.Fatalf("largest LeaseN(%d)+CompleteN batch allocates %d B at 200k logged trials against %d B at 1k: ratio %.2f, want ≤ 1.5",
			batch, late, early, ratio)
	}
}
