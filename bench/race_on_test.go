//go:build race

package main

import "time"

// The race detector slows the fleets several times over; the 5 s an
// epoch may take to become visible is a statement about an unslowed run.
func init() { visibleDeadline = time.Minute }
