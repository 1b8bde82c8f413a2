package predictor

import (
	"math"
	"testing"

	"aets/internal/workload"
)

// TestDTGMSlotAnchoring verifies the time-of-cycle feature plumbing: after
// Fit, the model's forecast slot continues from the end of the history and
// advances with each Predict; setting nextSlot rewinds it for re-evaluation.
func TestDTGMSlotAnchoring(t *testing.T) {
	bt := workload.NewBusTracker()
	series, _ := bt.RateSeries(320)

	cfg := DefaultDTGMConfig(10)
	cfg.Hidden, cfg.Epochs = 8, 3
	d := NewDTGM(bt.AccessGraph(), cfg)
	if err := d.Fit(series[:300]); err != nil {
		t.Fatal(err)
	}

	recent := series[240:300]
	p1 := d.Predict(recent, 10)
	d.nextSlot = 300
	p2 := d.Predict(recent, 10)
	for s := range p1 {
		for j := range p1[s] {
			if math.Abs(p1[s][j]-p2[s][j]) > 1e-9 {
				t.Fatalf("rewinding nextSlot did not restore determinism at [%d][%d]: %v vs %v",
					s, j, p1[s][j], p2[s][j])
			}
		}
	}

	// A different anchor slot must change the time features and thus the
	// forecast (at least somewhere).
	d.nextSlot = 300 + 36 // half a cycle later (BusDayPeriod=72)
	p3 := d.Predict(recent, 10)
	moved := false
	for s := range p1 {
		for j := range p1[s] {
			if math.Abs(p1[s][j]-p3[s][j]) > 1e-9 {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("time-of-cycle features have no effect on the forecast")
	}
}

// TestDTGMWithoutPeriodIgnoresSlot checks the single-channel configuration
// is insensitive to the slot anchor.
func TestDTGMWithoutPeriodIgnoresSlot(t *testing.T) {
	bt := workload.NewBusTracker()
	series, _ := bt.RateSeries(220)
	cfg := DefaultDTGMConfig(5)
	cfg.Hidden, cfg.Epochs, cfg.SlotPeriod = 8, 2, 0
	d := NewDTGM(bt.AccessGraph(), cfg)
	if err := d.Fit(series[:200]); err != nil {
		t.Fatal(err)
	}
	recent := series[140:200]
	p1 := d.Predict(recent, 5)
	d.nextSlot = 12345
	p2 := d.Predict(recent, 5)
	for s := range p1 {
		for j := range p1[s] {
			if p1[s][j] != p2[s][j] {
				t.Fatal("slot anchor leaked into the period-free model")
			}
		}
	}
}
