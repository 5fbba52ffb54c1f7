//go:build !race

package site

// raceEnabled reports whether the race detector instruments this build.
// Allocation guards skip under it: instrumentation adds bookkeeping
// allocations that say nothing about the site's event path.
const raceEnabled = false
