//go:build !race

package session

// raceEnabled reports whether the race detector is instrumenting this
// build; see race_on_test.go.
const raceEnabled = false
