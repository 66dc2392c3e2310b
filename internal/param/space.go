package param

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// A Config is a point in a search space: one internal float64 value per
// parameter, in the space's parameter order. Configs are plain slices so
// search strategies can do arithmetic on the numeric dimensions; Space
// methods exist to clamp the result back onto the valid grid.
type Config []float64

// Clone returns an independent copy of the configuration.
func (c Config) Clone() Config {
	d := make(Config, len(c))
	copy(d, c)
	return d
}

// Equal reports whether two configurations hold identical values.
func (c Config) Equal(d Config) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// A Space is an ordered, immutable-after-construction list of parameters
// forming the Cartesian search space T = τ₀ × τ₁ × … × τⱼ of the paper.
type Space struct {
	params []Parameter
}

// NewSpace builds a space over the given parameters. Parameter names must
// be unique; NewSpace panics otherwise, as a duplicate name is always a
// programming error in space construction.
func NewSpace(params ...Parameter) *Space {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if seen[p.Name()] {
			panic(fmt.Sprintf("param: duplicate parameter name %q", p.Name()))
		}
		seen[p.Name()] = true
	}
	ps := make([]Parameter, len(params))
	copy(ps, params)
	return &Space{params: ps}
}

// Dim returns the number of parameters (dimensions).
func (s *Space) Dim() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) Parameter { return s.params[i] }

// Params returns a copy of the parameter list.
func (s *Space) Params() []Parameter {
	ps := make([]Parameter, len(s.params))
	copy(ps, s.params)
	return ps
}

// IndexOf returns the index of the named parameter, or -1 when absent.
func (s *Space) IndexOf(name string) int {
	for i, p := range s.params {
		if p.Name() == name {
			return i
		}
	}
	return -1
}

// HasNominal reports whether the space contains any nominal parameter.
// Search strategies that rely on distance or direction must reject such
// spaces (the paper's Section II-B analysis).
func (s *Space) HasNominal() bool {
	for _, p := range s.params {
		if p.Class() == Nominal {
			return true
		}
	}
	return false
}

// MetricOnly reports whether every dimension offers a distance, i.e. the
// space is safe for metric search strategies such as Nelder-Mead.
func (s *Space) MetricOnly() bool {
	for _, p := range s.params {
		if !p.Class().HasDistance() {
			return false
		}
	}
	return true
}

// Cardinality returns the number of distinct configurations, or 0 when any
// dimension is continuous (infinite).
func (s *Space) Cardinality() int {
	total := 1
	for _, p := range s.params {
		c := p.Cardinality()
		if c == 0 {
			return 0
		}
		total *= c
	}
	return total
}

// Clamp maps an arbitrary point onto the nearest valid configuration.
// The input is not modified.
func (s *Space) Clamp(c Config) Config {
	return s.ClampInPlace(c.Clone())
}

// ClampInPlace is Clamp overwriting c with the result, which it returns.
func (s *Space) ClampInPlace(c Config) Config {
	if len(c) != len(s.params) {
		panic(fmt.Sprintf("param: config has %d values, space has %d dimensions", len(c), len(s.params)))
	}
	for i, p := range s.params {
		c[i] = p.Clamp(c[i])
	}
	return c
}

// Valid reports whether c is a valid point of the space (correct arity and
// every value a fixed point of its parameter's Clamp).
func (s *Space) Valid(c Config) bool {
	if len(c) != len(s.params) {
		return false
	}
	for i, p := range s.params {
		if math.IsNaN(c[i]) || p.Clamp(c[i]) != c[i] {
			return false
		}
	}
	return true
}

// Center returns the configuration at the midpoint of every dimension,
// a deterministic starting point for strategies without a better prior.
func (s *Space) Center() Config {
	c := make(Config, len(s.params))
	for i, p := range s.params {
		c[i] = p.Clamp((p.Lo() + p.Hi()) / 2)
	}
	return c
}

// Random returns a uniformly random valid configuration.
func (s *Space) Random(r *rand.Rand) Config {
	c := make(Config, len(s.params))
	for i, p := range s.params {
		c[i] = p.Clamp(p.Lo() + r.Float64()*(p.Hi()-p.Lo()))
	}
	return c
}

// Enumerate calls fn for every configuration of a fully discrete space, in
// lexicographic order, stopping early if fn returns false. It returns an
// error when the space has a continuous dimension. The Config passed to fn
// is reused between calls; clone it to retain it.
func (s *Space) Enumerate(fn func(Config) bool) error {
	if s.Cardinality() == 0 && s.Dim() > 0 {
		return fmt.Errorf("param: cannot enumerate a space with continuous dimensions")
	}
	c := make(Config, len(s.params))
	for i, p := range s.params {
		c[i] = p.Clamp(p.Lo())
	}
	if s.Dim() == 0 {
		fn(c)
		return nil
	}
	for {
		if !fn(c) {
			return nil
		}
		// Odometer increment from the last dimension.
		i := len(s.params) - 1
		for i >= 0 {
			p := s.params[i]
			next := c[i] + 1
			if next <= p.Hi() {
				c[i] = p.Clamp(next)
				break
			}
			c[i] = p.Clamp(p.Lo())
			i--
		}
		if i < 0 {
			return nil
		}
	}
}

// Format renders a configuration as "name=value" pairs for humans.
func (s *Space) Format(c Config) string {
	if len(c) != len(s.params) {
		return fmt.Sprintf("<arity mismatch: %d values for %d dims>", len(c), len(s.params))
	}
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(p.Name())
		b.WriteString("=")
		b.WriteString(p.FormatValue(c[i]))
	}
	return b.String()
}

// Neighbors returns the valid axis-aligned unit-step neighbours of c for
// fully discrete, ordered spaces (used by hill climbing and simulated
// annealing). It returns an error when the space contains a nominal or
// continuous dimension, for which "neighbour" is undefined — this encodes
// the paper's argument that neighbourhood-based methods cannot handle
// algorithmic choice.
func (s *Space) Neighbors(c Config) ([]Config, error) {
	if s.HasNominal() {
		return nil, fmt.Errorf("param: neighbourhood is undefined on nominal dimensions")
	}
	if !s.Valid(c) {
		return nil, fmt.Errorf("param: invalid configuration")
	}
	var out []Config
	for i, p := range s.params {
		step := 1.0
		if p.Cardinality() == 0 {
			// Continuous: use 1% of the range as the unit step.
			step = (p.Hi() - p.Lo()) / 100
			if step == 0 {
				continue
			}
		}
		for _, d := range []float64{-step, +step} {
			n := c.Clone()
			n[i] = p.Clamp(c[i] + d)
			if !n.Equal(c) {
				out = append(out, n)
			}
		}
	}
	return out, nil
}
