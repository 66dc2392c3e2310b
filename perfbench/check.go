package main

import (
	"fmt"

	"repro/internal/core"
)

// checkAccounting fails a run whose engine lost track of a trial: every
// lease ended exactly one way or is still in flight, and the round
// completed at least its budget.
func checkAccounting(what string, st core.EngineStats, budget int) error {
	if st.InFlight < 0 || st.Leased != st.Completed+st.Failed+st.Expired+uint64(st.InFlight) {
		return fmt.Errorf("%s accounting unbalanced: leased %d ≠ completed %d + failed %d + expired %d + in flight %d",
			what, st.Leased, st.Completed, st.Failed, st.Expired, st.InFlight)
	}
	if st.Completed < uint64(budget) {
		return fmt.Errorf("%s completed %d trials, budget %d", what, st.Completed, budget)
	}
	return nil
}

// checkWinner fails a run whose tuner did not find the arm the cost
// model makes best.
func checkWinner(what string, got, want int, names []string) error {
	if got == want {
		return nil
	}
	name := "(none)"
	if got >= 0 && got < len(names) {
		name = names[got]
	}
	return fmt.Errorf("%s: tuner chose %s, the known best arm is %s", what, name, names[want])
}

// argmax returns the index of the largest count (-1 for none).
func argmax(counts []int) int {
	best := -1
	for i, c := range counts {
		if best < 0 || c > counts[best] {
			best = i
		}
	}
	return best
}

// checkVersions fails a traced round whose clients wrote frames of
// other protocol versions than the workload negotiates untraced: the
// connection wrappers must not change what the peers agree on.
func checkVersions(tr *tracer, want ...int) error {
	if tr == nil {
		return nil
	}
	var mask uint32
	for _, v := range want {
		mask |= 1 << v
	}
	if got := tr.clientVersions.Load(); got != mask {
		return fmt.Errorf("traced clients wrote protocol versions %v, want %v", versionList(got), want)
	}
	return nil
}

func versionList(mask uint32) []int {
	var out []int
	for v := 0; v < 32; v++ {
		if mask&(1<<v) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// checkPacked fails a traced round in which a v3 client sent any
// request after its handshake in the JSON family: under trace the hot
// path must stay packed.
func checkPacked(tr *tracer) error {
	if tr == nil {
		return nil
	}
	frames, packed, hellos := tr.client.frames.Load(), tr.client.packed.Load(), tr.client.hellos.Load()
	if packed != frames-hellos {
		return fmt.Errorf("traced clients sent %d of %d post-handshake frames packed", packed, frames-hellos)
	}
	return nil
}
