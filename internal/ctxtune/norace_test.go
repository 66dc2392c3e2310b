//go:build !race

package ctxtune

const raceEnabled = false
