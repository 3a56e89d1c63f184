//go:build race

package sched_test

// raceEnabled reports a -race build, whose sync.Pool drops items on
// purpose; allocation-count tests skip under it.
const raceEnabled = true
