package ctxtune

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/nominal"
)

// mallocs counts the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCompleteNAllocCeiling: a single-context CompleteN of one result
// allocates its returned error slice and nothing of its own beyond what
// the calls it delegates to — the replica's CompleteN and the global
// Absorb — allocate when made directly.
func TestCompleteNAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	e, err := New(testConfig(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	drive(t, e, 200) // past the split: cheapF has its own context
	rep := e.replicaOf(e.part.Context(cheapF))
	if rep == nil {
		t.Fatal("no replica for the cheap class")
	}
	const runs = 200
	var routed, direct, absorb uint64
	for i := 0; i < runs; i++ {
		trials, err := e.LeaseNFor(cheapF, 1)
		if err != nil {
			t.Fatal(err)
		}
		res := []core.TrialResult{{ID: trials[0].ID, Value: classCost(cheapF, trials[0].Algo)}}
		routed += mallocs(func() {
			if errs := e.CompleteN(res); errs[0] != nil {
				t.Fatal(errs[0])
			}
		})

		trials, err = rep.eng.LeaseN(1)
		if err != nil {
			t.Fatal(err)
		}
		res = []core.TrialResult{{ID: trials[0].ID, Value: classCost(cheapF, trials[0].Algo)}}
		obs := []nominal.Observation{{Arm: trials[0].Algo, Value: res[0].Value}}
		direct += mallocs(func() {
			if errs := rep.eng.CompleteN(res); errs[0] != nil {
				t.Fatal(errs[0])
			}
		})
		absorb += mallocs(func() { e.global.Absorb(obs) })
	}
	own := float64(routed)/runs - float64(direct+absorb)/runs
	t.Logf("CompleteN(1): %.2f allocs, replica CompleteN %.2f, global Absorb %.2f", float64(routed)/runs, float64(direct)/runs, float64(absorb)/runs)
	if own > 1.25 {
		t.Errorf("CompleteN(1) allocates %.2f beyond the calls it delegates to, ceiling 1 (the error slice)", own)
	}
}
