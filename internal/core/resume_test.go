package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/nominal"
)

// TestShardedEngineAllocatesOneDeltaPerShard pins what building a
// sharded engine costs: each shard preallocates the delta its
// completions are recorded into, and nothing else of that size. The
// second delta array that folds alternate with is allocated by the
// first fold, so an engine that is resumed and soon spilled again never
// pays for it.
func TestShardedEngineAllocatesOneDeltaPerShard(t *testing.T) {
	const shards, mergeEvery = 2, 1 << 15
	delta := uint64(unsafe.Sizeof(shardObs{})) * (mergeEvery + 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 1,
		WithShards(shards), WithMergeEvery(mergeEvery))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	// Everything besides the deltas (selectors, speculators, lease
	// tables) comes to a few kilobytes; allow a quarter of a delta.
	ceiling := shards*delta + delta/4
	t.Logf("NewShardedEngine(%d shards, merge every %d): %d B allocated, one delta is %d B", shards, mergeEvery, got, delta)
	if got > ceiling {
		t.Errorf("NewShardedEngine allocated %d B, ceiling %d B (%d shards × one %d B delta, plus slack)", got, ceiling, shards, delta)
	}

	// The first fold allocates the second array, and folds still work.
	eng.RunPool(4, 200, shardedMeasure)
	if got := eng.Iterations(); got != 200 {
		t.Fatalf("Iterations() = %d after 200 trials", got)
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(tb testing.TB, src, dst string) {
	tb.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkResumeSharded is a tenant's warm restart: a two-shard engine
// that folds every 32768 completions ran 1,900 trials with a snapshot
// every 1,000, and each iteration resumes it from a fresh copy of its
// directory — snapshot load, one pass over both journal generations,
// replay of the 900-record tail, and the new shards.
func BenchmarkResumeSharded(b *testing.B) {
	const shards, mergeEvery, every, trials = 2, 1 << 15, 1000, 1900
	src := b.TempDir()
	opts := []Option{WithShards(shards), WithMergeEvery(mergeEvery)}
	eng, err := NewShardedEngine(shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 3,
		append(opts, WithCheckpoint(src, every))...)
	if err != nil {
		b.Fatal(err)
	}
	eng.RunPool(4, trials, shardedMeasure)
	if err := eng.CheckpointErr(); err != nil {
		b.Fatal(err)
	}
	if gens := checkpoint.JournalGenerations(src); len(gens) != 2 {
		b.Fatalf("journal generations %v, want 2", gens)
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, fmt.Sprintf("resume-%d", i))
		copyDir(b, src, dir)
		b.StartTimer()
		rs, err := ResumeSharded(dir, every, shardedAlgos(), nominal.NewEpsilonGreedy(0.10), nil, 3, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Iterations() != trials {
			b.Fatalf("resumed at %d iterations, want %d", rs.Iterations(), trials)
		}
	}
}
