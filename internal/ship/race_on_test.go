//go:build race

package ship

const raceEnabled = true
