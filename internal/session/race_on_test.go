//go:build race

package session

// raceEnabled reports whether the race detector is instrumenting this
// build; its write barriers and shadow state add heap allocations, so
// the allocation-budget tests skip themselves under -race.
const raceEnabled = true
