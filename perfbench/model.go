package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ctxtune"
	"repro/internal/param"
)

// Roster and cost-model shape. The roster size and the cost spreads are
// fixed so that every seed exercises the same amount of work; the seed
// only chooses names, which arm wins, the other arms' costs, the
// tunable arms' optima and the feature vectors.
const (
	rosterSize = 6
	// tunableArms of the roster carry a one-dimensional ratio parameter
	// on [paramLo, paramHi], so phase one (numeric search) runs too.
	tunableArms      = 2
	paramLo, paramHi = 1.0, 10.0
	// Every non-winning arm costs at least minGap times the winner. The
	// worst winner observation is (1+detuneMax)·(1+noiseMax) < minGap
	// times its base, so the best observation of a run always belongs
	// to the winner and the winner check cannot fail by noise.
	minGap    = 1.3
	maxGap    = 3.0
	detuneMax = 0.2
	noiseMax  = 0.04
	// dearScale multiplies the "dear" feature class's costs.
	dearScale = 8
)

// class is one feature class: a cost table over the shared roster, the
// arm that wins under it, and the feature vector its clients send.
type class struct {
	name   string
	feats  []float64
	base   []float64 // per-arm base cost
	winner int
}

// model is everything a workload derives from its seed.
type model struct {
	algos []core.Algorithm
	names []string
	opt   []float64 // per-arm optimum of the tunable parameter; NaN for fixed arms
	cheap class
	dear  class
}

// newModel generates a roster with its cost model. Two models from the
// same seed are identical.
func newModel(seed int64) *model {
	r := rand.New(rand.NewSource(seed))
	m := &model{
		algos: make([]core.Algorithm, rosterSize),
		names: make([]string, rosterSize),
		opt:   make([]float64, rosterSize),
	}
	stems := []string{"scan", "hash", "tree", "skip", "bloom", "radix", "merge", "probe"}
	perm := r.Perm(len(stems))
	arms := r.Perm(rosterSize) // the first tunableArms of them are tunable
	for i := range m.algos {
		m.names[i] = fmt.Sprintf("%s-%03d", stems[perm[i]], r.Intn(1000))
		m.algos[i] = core.Algorithm{Name: m.names[i]}
		m.opt[i] = math.NaN()
	}
	for _, i := range arms[:tunableArms] {
		m.algos[i].Space = param.NewSpace(param.NewRatio("x", paramLo, paramHi))
		m.opt[i] = paramLo + r.Float64()*(paramHi-paramLo)
	}
	// The cheap class's winner is always a tunable arm and the dear
	// class's a fixed one, so every seed does the same kind of work:
	// phase-one search on the hot arm under "cheap", none under "dear".
	m.cheap = newClass(r, "cheap", arms[r.Intn(tunableArms)], 1)
	m.dear = newClass(r, "dear", arms[tunableArms+r.Intn(rosterSize-tunableArms)], dearScale)
	m.cheap.feats, m.dear.feats = splitFeatures(r)
	return m
}

// newClass draws a cost table whose cheapest arm is winner.
func newClass(r *rand.Rand, name string, winner int, scale float64) class {
	c := class{name: name, base: make([]float64, rosterSize), winner: winner}
	for i := range c.base {
		c.base[i] = scale * (minGap + r.Float64()*(maxGap-minGap))
	}
	c.base[winner] = scale
	return c
}

// splitFeatures draws the two classes' feature vectors (input size,
// corpus class) such that the contextual engine's default partitioner
// puts them in different root contexts: the "≥ 2 contexts" check must
// fail only when the program stops discovering contexts, never because
// a seed hashed both classes into one bucket.
func splitFeatures(r *rand.Rand) (cheap, dear []float64) {
	for {
		cheap = []float64{float64(64 + r.Intn(448)), 0}
		dear = []float64{float64(1<<16 + r.Intn(1<<18)), 1}
		t := ctxtune.NewTree(ctxtune.DefaultBuckets, ctxtune.DefaultMinSamples, 0)
		if t.Context(cheap) != t.Context(dear) {
			return cheap, dear
		}
	}
}

// cost is the measured value of one trial of arm at cfg under class c:
// the arm's base cost, raised by the distance from its optimum on
// tunable arms, times a small multiplicative noise.
func (m *model) cost(c *class, arm int, cfg param.Config, r *rand.Rand) float64 {
	v := c.base[arm]
	if !math.IsNaN(m.opt[arm]) && len(cfg) > 0 {
		d := (cfg[0] - m.opt[arm]) / (paramHi - paramLo)
		v *= 1 + detuneMax*d*d
	}
	return v * (1 + noiseMax*r.Float64())
}
