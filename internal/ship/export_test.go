package ship

import (
	"aets/internal/epoch"
	"aets/internal/metrics"
)

// WireLen is the length of enc's EPOCH frame in the flate or the raw
// form, so external tests can place a cut inside a chosen frame.
func WireLen(enc *epoch.Encoded, compressed bool) int {
	return len(NewFrame(enc).wire(compressed, new(metrics.Counter)))
}
