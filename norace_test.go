//go:build !race

package oselmrl_test

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = false
