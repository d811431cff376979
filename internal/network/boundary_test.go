package network

import "testing"

func TestBackboneDelayAndMin(t *testing.T) {
	b := BackboneSpec{Latency: 0.01, Bandwidth: 1e6, Staging: 30}
	if got := b.MinDelay(); got != 30.01 {
		t.Fatalf("MinDelay = %v, want 30.01", got)
	}
	// 2 MB at 1 MB/s serialises in 2 s on top of the floor.
	if got := b.Delay(2e6); got < 32.01-1e-9 || got > 32.01+1e-9 {
		t.Fatalf("Delay(2MB) = %v, want 32.01", got)
	}
}
