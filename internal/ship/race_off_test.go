//go:build !race

package ship

// raceEnabled reports whether the race detector is active; alloc-count
// tests skip under it (the detector instruments sync.Pool with random
// cache drops, so steady-state reuse cannot be asserted).
const raceEnabled = false
