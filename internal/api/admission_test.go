package api

import (
	"sync"
	"testing"
)

// TestAdmissionExactLimit: the in-flight cap is exact — admit up to the
// limit, shed the next, admit again after one release — and the classes
// are independent ledgers.
func TestAdmissionExactLimit(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlightEdge: 3, MaxInFlightDCC: 1}, nil)
	for i := 0; i < 3; i++ {
		if !a.Admit(lineEdge) {
			t.Fatalf("edge admit %d refused below the limit", i)
		}
	}
	if a.Admit(lineEdge) {
		t.Fatal("edge admit at the limit accepted")
	}
	if !a.Admit(lineDCC) {
		t.Fatal("dcc refused while edge is full: classes not independent")
	}
	if a.Admit(lineDCC) {
		t.Fatal("dcc admitted past its own limit")
	}
	a.Release(lineEdge)
	if got := a.InFlight(lineEdge); got != 2 {
		t.Fatalf("inflight %d after release, want 2", got)
	}
	if !a.Admit(lineEdge) {
		t.Fatal("edge refused after a slot freed")
	}
}

// TestAdmissionQueueCap: a queue depth at (or past) MaxQueue sheds every
// class, one below admits — the boundary is exact.
func TestAdmissionQueueCap(t *testing.T) {
	depth := 0
	a := newAdmission(AdmissionConfig{MaxQueue: 8}, func() int { return depth })
	for _, tc := range []struct {
		depth int
		want  bool
	}{
		{7, true}, {8, false}, {9, false}, {0, true},
	} {
		depth = tc.depth
		if got := a.Admit(lineEdge); got != tc.want {
			t.Fatalf("depth %d: admit = %v, want %v", tc.depth, got, tc.want)
		}
		if got := a.Admit(lineDCC); got != tc.want {
			t.Fatalf("depth %d: dcc admit = %v, want %v", tc.depth, got, tc.want)
		}
		for a.InFlight(lineEdge) > 0 {
			a.Release(lineEdge)
		}
		for a.InFlight(lineDCC) > 0 {
			a.Release(lineDCC)
		}
	}
}

// TestAdmissionReleaseFloor: a spurious release cannot drive the ledger
// negative and open phantom capacity.
func TestAdmissionReleaseFloor(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlightEdge: 1}, nil)
	a.Release(lineEdge)
	if got := a.InFlight(lineEdge); got != 0 {
		t.Fatalf("inflight %d after spurious release, want 0", got)
	}
	if !a.Admit(lineEdge) {
		t.Fatal("admit refused at zero in-flight")
	}
	if a.Admit(lineEdge) {
		t.Fatal("limit 1 admitted twice")
	}
}

// TestAdmissionConcurrent hammers admit/release from many goroutines (the
// -race exercise) and checks the ledger never exceeds the limit and drains
// to exactly zero.
func TestAdmissionConcurrent(t *testing.T) {
	const limit = 16
	a := newAdmission(AdmissionConfig{MaxInFlightEdge: limit}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if a.Admit(lineEdge) {
					if got := a.InFlight(lineEdge); got > limit {
						t.Errorf("inflight %d exceeds limit %d", got, limit)
					}
					a.Release(lineEdge)
				}
			}
		}()
	}
	wg.Wait()
	if got := a.InFlight(lineEdge); got != 0 {
		t.Fatalf("ledger did not drain: %d in flight", got)
	}
}
