package xrand

import (
	"math/rand"
	"testing"
)

// draw takes n mixed draws through the source's Rand: Int63-backed
// (Intn, Float64) and Uint64-backed ones, so both counting paths run.
func draw(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			out = append(out, uint64(r.Intn(1000)))
		case 1:
			out = append(out, r.Uint64())
		default:
			out = append(out, uint64(r.Float64()*(1<<53)))
		}
	}
	return out
}

// TestNewMatchesStdlib: a fresh Source yields rand.NewSource's stream.
func TestNewMatchesStdlib(t *testing.T) {
	want := draw(rand.New(rand.NewSource(7)), 200)
	got := draw(New(7).Rand(), 200)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %d, stdlib gives %d", i, got[i], want[i])
		}
	}
}

// TestRestoreContinuesStream: a Source restored at the position a
// running one reached continues with exactly the draws the running one
// makes next.
func TestRestoreContinuesStream(t *testing.T) {
	for _, k := range []int{0, 1, 17, 500} {
		src := New(42)
		r := src.Rand()
		draw(r, k)
		seed, drawn := src.State()
		want := draw(r, 100)

		got := draw(Restore(seed, drawn).Rand(), 100)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %d draws: restored draw %d = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestStateRoundTrip: Restore(State()) reports the same State, and a
// restored source keeps counting from there.
func TestStateRoundTrip(t *testing.T) {
	src := New(-3)
	draw(src.Rand(), 33)
	seed, drawn := src.State()
	if seed != -3 {
		t.Fatalf("State seed = %d, want -3", seed)
	}
	r := Restore(seed, drawn)
	if s, d := r.State(); s != seed || d != drawn {
		t.Fatalf("Restore(%d, %d).State() = (%d, %d)", seed, drawn, s, d)
	}
	r.Int63()
	r.Uint64()
	if _, d := r.State(); d != drawn+2 {
		t.Fatalf("after two more draws State drawn = %d, want %d", d, drawn+2)
	}
}

// TestSeedResets: Seed restarts the stream and the count, as a fresh
// source on the new seed would.
func TestSeedResets(t *testing.T) {
	src := New(1)
	r := src.Rand()
	draw(r, 50)
	src.Seed(9)
	if s, d := src.State(); s != 9 || d != 0 {
		t.Fatalf("after Seed(9) State = (%d, %d), want (9, 0)", s, d)
	}
	want := draw(New(9).Rand(), 50)
	got := draw(r, 50)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reseeded draw %d = %d, fresh source gives %d", i, got[i], want[i])
		}
	}
}

// TestRandDrawsCount: every value a Rand pulls from the source counts,
// including the several Int63 calls some methods make per result.
func TestRandDrawsCount(t *testing.T) {
	src := New(5)
	r := src.Rand()
	shadow := &countingSource{inner: rand.NewSource(5).(rand.Source64)}
	sr := rand.New(shadow)
	for i := 0; i < 300; i++ {
		r.Intn(1 << 40)
		sr.Intn(1 << 40)
		r.Perm(3)
		sr.Perm(3)
		r.NormFloat64()
		sr.NormFloat64()
		r.Uint32()
		sr.Uint32()
	}
	if _, d := src.State(); d != shadow.n || d == 0 {
		t.Fatalf("State drawn = %d, the Rand pulled %d values", d, shadow.n)
	}
}

// countingSource counts the values rand.Rand pulls from a stdlib source.
type countingSource struct {
	inner rand.Source64
	n     uint64
}

func (c *countingSource) Int63() int64    { c.n++; return c.inner.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.inner.Uint64() }
func (c *countingSource) Seed(seed int64) { c.inner.Seed(seed) }
