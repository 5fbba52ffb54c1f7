//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// Allocation guards skip under it: instrumentation adds bookkeeping
// allocations that say nothing about list-scheduling.
const raceEnabled = false
