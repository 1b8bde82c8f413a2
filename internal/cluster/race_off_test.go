//go:build !race

package cluster

// raceEnabled reports whether the race detector is active; alloc-count
// tests skip under it (its instrumentation allocates).
const raceEnabled = false
