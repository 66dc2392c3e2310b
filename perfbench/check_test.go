package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/nominal"
	"repro/internal/tuned"
	"repro/internal/wire"
)

func TestCheckAccounting(t *testing.T) {
	balanced := core.EngineStats{Leased: 10, Completed: 7, Failed: 1, Expired: 1, InFlight: 1}
	if err := checkAccounting("e", balanced, 7); err != nil {
		t.Fatalf("balanced stats rejected: %v", err)
	}
	unbalanced := balanced
	unbalanced.Completed++
	if err := checkAccounting("e", unbalanced, 7); err == nil {
		t.Fatal("leased ≠ completed + failed + expired + in flight was accepted")
	}
	if err := checkAccounting("e", balanced, 8); err == nil {
		t.Fatal("fewer completions than the budget were accepted")
	}
}

func TestCheckWinner(t *testing.T) {
	names := []string{"a", "b"}
	if err := checkWinner("w", 1, 1, names); err != nil {
		t.Fatal(err)
	}
	for _, got := range []int{0, -1} {
		if err := checkWinner("w", got, 1, names); err == nil {
			t.Fatalf("arm %d accepted as the winner", got)
		}
	}
}

// A round whose tuner converges on another arm than the model's winner
// must fail, not report numbers.
func TestWrongWinnerFailsRound(t *testing.T) {
	w := &pipelined{seed: 7, m: newModel(7)}
	if _, err := runRound(w, nil); err != nil {
		t.Fatalf("round with the true winner failed: %v", err)
	}
	w.m.cheap.winner = (w.m.cheap.winner + 1) % rosterSize
	_, err := runRound(w, nil)
	if err == nil || !strings.Contains(err.Error(), "known best arm") {
		t.Fatalf("round with a wrong expected winner: err = %v, want a winner check failure", err)
	}
}

func TestModelIsSeeded(t *testing.T) {
	a, b := newModel(3), newModel(3)
	if strings.Join(a.names, ",") != strings.Join(b.names, ",") || a.cheap.winner != b.cheap.winner || a.dear.winner != b.dear.winner {
		t.Fatal("one seed gave two models")
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		m := newModel(seed)
		if m.cheap.winner == m.dear.winner {
			t.Fatalf("seed %d: both classes share winner %d", seed, m.cheap.winner)
		}
		if m.algos[m.cheap.winner].Space == nil || m.algos[m.dear.winner].Space != nil {
			t.Fatalf("seed %d: cheap winner must be tunable, dear winner fixed", seed)
		}
	}
}

// The wrapper must expose exactly the wrapped engine's optional
// extensions, or the server would take another path under trace.
func TestWrapperKeepsExtensions(t *testing.T) {
	m := newModel(1)
	plain, err := core.NewConcurrentTuner(m.algos, nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewShardedEngine(m.algos, nominal.NewEpsilonGreedy(0.1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ctxtune.New(ctxtune.Config{Algos: m.algos, Selector: ctxSelector, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	tr := newTracer(16)
	for name, eng := range map[string]tuned.Engine{"plain": plain, "sharded": sharded, "contextual": ctx} {
		w, err := tr.wrapEngine(eng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameExtensions(eng, w); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := sameExtensions(sharded, &tracedEngine{Engine: sharded, t: tr}); err == nil {
		t.Error("a wrapper hiding Shards/LeaseNOn passed the check")
	}
}

func TestFrameScanAcrossSplitWrites(t *testing.T) {
	tr := newTracer(16)
	var stream []byte
	for i := 0; i < captureAfter+2; i++ {
		f, err := wire.AppendFrame(nil, 3, wire.TCompleteP, uint16(i+1), &wire.PackedCompleteReq{Epoch: 1, Results: []wire.PackedResult{{ID: uint64(i), Value: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
	}
	var scan frameScan
	for len(stream) > 0 {
		n := min(len(stream), 7)
		scan.feed(stream[:n], tr, &tr.client, true)
		stream = stream[n:]
	}
	if got := tr.client.frames.Load(); got != captureAfter+2 {
		t.Fatalf("counted %d frames, want %d", got, captureAfter+2)
	}
	if got := tr.client.packed.Load(); got != captureAfter+2 {
		t.Fatalf("counted %d packed frames, want %d", got, captureAfter+2)
	}
	if err := checkVersions(tr, 3); err != nil {
		t.Fatal(err)
	}
	f := tr.frame(wire.TCompleteP)
	if f == nil {
		t.Fatal("no frame captured")
	}
	var req wire.PackedCompleteReq
	if err := req.DecodeFrom(f[wire.HeaderSize:]); err != nil || req.Results[0].ID != captureAfter {
		t.Fatalf("captured frame decodes to %+v, %v", req, err)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, wl := range b.Workloads {
		if _, err := newWorkload(wl.Name, 1, t.TempDir()); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		have   []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.have) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.listed), len(c.have))
			continue
		}
		for i, m := range c.have {
			if c.listed[i].Name != m.name || c.listed[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.listed[i].Name, c.listed[i].Unit, m.name, m.unit)
			}
		}
	}
}
