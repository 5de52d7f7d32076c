//go:build !race

package timewarp

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
