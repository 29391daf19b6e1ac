//go:build !race

package bandit

// raceEnabled reports whether the test binary runs under the race
// detector; race_test.go holds the other half of the pair.
const raceEnabled = false
