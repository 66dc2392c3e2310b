//go:build race

package ctxtune

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items at random, so allocation counts of pooled paths mean nothing.
const raceEnabled = true
