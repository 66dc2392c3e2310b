package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nominal"
	"repro/internal/param"
)

// hotPathEngine is the trial engine the hot-path tests drive: a roster
// with one tunable arm beside a plain one, and no lease timeout.
func hotPathEngine(tb testing.TB, opts ...Option) *ConcurrentTuner {
	tb.Helper()
	algos := []Algorithm{
		{Name: "plain"},
		{Name: "tuned", Space: param.NewSpace(param.NewInterval("x", 0, 10), param.NewIntervalInt("y", 1, 64))},
	}
	ct, err := NewConcurrentTuner(algos, nominal.NewEpsilonGreedy(0.10), nil, 42,
		append([]Option{WithLeaseTimeout(0)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	return ct
}

// leaseCompleteBatch leases n trials and completes them all in one
// CompleteN, reusing results' storage.
func leaseCompleteBatch(tb testing.TB, ct *ConcurrentTuner, n int, results []TrialResult) []TrialResult {
	trials, err := ct.LeaseN(n)
	if err != nil || len(trials) != n {
		tb.Fatalf("LeaseN(%d) = %d trials, %v", n, len(trials), err)
	}
	results = results[:0]
	for _, tr := range trials {
		v := float64(2 - tr.Algo) // the tunable arm wins
		for _, x := range tr.Config {
			v += 1e-3 * x
		}
		results = append(results, TrialResult{ID: tr.ID, Value: v})
	}
	for _, err := range ct.CompleteN(results) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return results
}

// TestLeaseCompleteAllocCeiling pins the engine's per-trial allocations
// at batch 16: each speculative draw is one allocation and becomes the
// engine's private copy, the batch's caller configs share one backing
// array, lease records are recycled, and the lock-free snapshots are
// republished once per call. Allocation counts do not depend on the
// machine, so the ceiling holds anywhere.
func TestLeaseCompleteAllocCeiling(t *testing.T) {
	const batch = 16
	const ceiling = 25 // allocations per batch: 16 leased and completed trials
	ct := hotPathEngine(t, WithoutHistory())
	results := make([]TrialResult, 0, batch)
	// Warm up: the lease table, the free list and the value timelines
	// reach their steady-state size.
	for i := 0; i < 100; i++ {
		results = leaseCompleteBatch(t, ct, batch, results)
	}
	perBatch := testing.AllocsPerRun(200, func() {
		results = leaseCompleteBatch(t, ct, batch, results)
	})
	t.Logf("LeaseN(%d)+CompleteN: %v allocs per batch", batch, perBatch)
	if perBatch > ceiling {
		t.Errorf("LeaseN(%d)+CompleteN: %v allocs per batch (%.2f per trial), ceiling %d", batch, perBatch, perBatch/batch, ceiling)
	}
}

// TestRecycledLeaseNeverAliases checks the ownership rule: every config
// a caller gets is its own. Mutating (and appending to) each returned
// config, across rounds that recycle lease records, must leave the
// batch's other configs, History and Best untouched.
func TestRecycledLeaseNeverAliases(t *testing.T) {
	ct := hotPathEngine(t)
	var want []param.Config // History's configs, in completion order
	for round := 0; round < 30; round++ {
		var trials []Trial
		if round%3 == 2 {
			tr, err := ct.Lease()
			if err != nil {
				t.Fatal(err)
			}
			trials = []Trial{tr}
		} else {
			var err error
			if trials, err = ct.LeaseN(8); err != nil {
				t.Fatal(err)
			}
		}
		orig := make([]param.Config, len(trials))
		for i, tr := range trials {
			orig[i] = tr.Config.Clone()
		}
		for i := range trials {
			_ = append(trials[i].Config, -7)
			for k := range trials[i].Config {
				trials[i].Config[k] = -1
			}
			for j := i + 1; j < len(trials); j++ {
				if !trials[j].Config.Equal(orig[j]) {
					t.Fatalf("round %d: writing trial %d's config changed trial %d's: %v, want %v", round, i, j, trials[j].Config, orig[j])
				}
			}
		}
		results := make([]TrialResult, len(trials))
		for i, tr := range trials {
			results[i] = TrialResult{ID: tr.ID, Value: float64(100-round-tr.Algo) - float64(i)/10}
		}
		for _, err := range ct.CompleteN(results) {
			if err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, orig...)

		hist := ct.History()
		if len(hist) != len(want) {
			t.Fatalf("round %d: %d history records, want %d", round, len(hist), len(want))
		}
		for k, rec := range hist {
			if !rec.Config.Equal(want[k]) {
				t.Fatalf("round %d: history record %d config %v, want %v", round, k, rec.Config, want[k])
			}
		}
		_, cfg, _ := ct.Best()
		if len(cfg) == 0 {
			t.Fatalf("round %d: the incumbent has no config to mutate", round)
		}
		keep := cfg.Clone()
		for k := range cfg {
			cfg[k] = -2
		}
		if _, again, _ := ct.Best(); !again.Equal(keep) {
			t.Fatalf("round %d: mutating Best's config changed the incumbent: %v, want %v", round, again, keep)
		}
	}
}

// TestSnapshotsPublishWholeBatches runs a lock-free reader beside a
// CompleteN loop (meant for -race): Best, Counts and Iterations must
// each show a whole number of batches. Values fall within every batch,
// so a best value published mid-batch would not be a batch's last.
func TestSnapshotsPublishWholeBatches(t *testing.T) {
	const batch, rounds, top = 16, 300, 1e6
	ct := hotPathEngine(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := ct.Iterations(); n%batch != 0 {
				t.Errorf("Iterations() = %d, not a whole number of batches", n)
				return
			}
			sum := 0
			for _, c := range ct.Counts() {
				sum += c
			}
			if sum%batch != 0 {
				t.Errorf("Counts() sum to %d, not a whole number of batches", sum)
				return
			}
			if _, _, v := ct.Best(); !math.IsInf(v, 1) && int(top-v+1)%batch != 0 {
				t.Errorf("Best() value %v was published mid-batch", v)
				return
			}
		}
	}()
	results := make([]TrialResult, batch)
	for r := 0; r < rounds; r++ {
		trials, err := ct.LeaseN(batch)
		if err != nil {
			t.Fatal(err)
		}
		for j, tr := range trials {
			results[j] = TrialResult{ID: tr.ID, Value: top - float64(r*batch+j)}
		}
		ct.CompleteN(results)
	}
	close(done)
	wg.Wait()
}

// TestEngineCallsVisibleOnReturn checks that every mutating engine call
// has republished the lock-free snapshots by the time it returns.
func TestEngineCallsVisibleOnReturn(t *testing.T) {
	ct := hotPathEngine(t)
	want, best := 0, math.Inf(1)
	check := func(what string) {
		t.Helper()
		sum := 0
		for _, c := range ct.Counts() {
			sum += c
		}
		if got := ct.Iterations(); got != want || sum != want {
			t.Fatalf("after %s: Iterations() = %d, Counts() sum %d, want %d", what, got, sum, want)
		}
		if _, _, v := ct.Best(); v != best {
			t.Fatalf("after %s: Best() value %v, want %v", what, v, best)
		}
	}
	for r := 0; r < 20; r++ {
		trials, err := ct.LeaseN(4)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]TrialResult, len(trials))
		for i, tr := range trials {
			results[i] = TrialResult{ID: tr.ID, Value: float64(50 - r - i)}
			best = min(best, results[i].Value)
		}
		ct.CompleteN(results)
		want += len(results)
		check(fmt.Sprintf("CompleteN round %d", r))

		tr, err := ct.Lease()
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.Complete(tr.ID, 10-float64(r)/2); err != nil {
			t.Fatal(err)
		}
		want++
		best = min(best, 10-float64(r)/2)
		check(fmt.Sprintf("Complete round %d", r))

		applied := ct.Absorb([]nominal.Observation{{Arm: 0, Value: 40}})
		want += applied
		check(fmt.Sprintf("Absorb round %d", r))
	}
}

// BenchmarkEngineLeaseComplete is the engine layer of the trial path:
// one op is LeaseN(batch) plus the CompleteN reporting it, so allocs/op
// is per batch; ns/trial divides the time by the batch.
func BenchmarkEngineLeaseComplete(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ct := hotPathEngine(b, WithoutHistory())
			results := make([]TrialResult, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = leaseCompleteBatch(b, ct, batch, results)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/trial")
		})
	}
}
