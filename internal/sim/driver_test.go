package sim

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a virtual wall clock: Sleep advances it instantly, so a
// paced drive runs a whole session in microseconds of real time while the
// pacing arithmetic still sees a monotone clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPacedTracksWallClock(t *testing.T) {
	e := New()
	clk := &fakeClock{}
	p := &Paced{Speed: 10, MaxSlice: 5, Tick: 100 * time.Millisecond, Clock: clk}
	p.Drive(e, 50)
	// 50 sim seconds at 10x needs 5 wall seconds; the fake clock advanced
	// only through Sleep ticks, so the engine must have reached exactly 50.
	if e.Now() != 50 {
		t.Fatalf("paced drive left clock at %v, want 50", e.Now())
	}
}

func TestPacedSliceBound(t *testing.T) {
	e := New()
	clk := &fakeClock{now: time.Unix(0, 0)}
	var reached []Time
	p := &Paced{
		Speed: 1000, MaxSlice: 7, Tick: time.Second, Clock: clk,
		OnAdvance: func(at Time) { reached = append(reached, at) },
	}
	p.Drive(e, 21)
	if len(reached) == 0 {
		t.Fatal("no OnAdvance callbacks")
	}
	prev := Time(0)
	for _, at := range reached {
		if at-prev > 7 {
			t.Fatalf("slice %v → %v exceeds MaxSlice 7", prev, at)
		}
		prev = at
	}
	if reached[len(reached)-1] != 21 {
		t.Fatalf("final slice reached %v, want 21", reached[len(reached)-1])
	}
}

func TestPacedAppliesInjectionsInSeqOrder(t *testing.T) {
	e := New()
	q := NewInjectQueue()
	var applied []uint64
	var atTimes []Time
	for i := 0; i < 20; i++ {
		q.Inject(func(seq uint64) {
			applied = append(applied, seq)
			atTimes = append(atTimes, e.Now())
		})
	}
	clk := &fakeClock{}
	p := &Paced{Speed: 100, Tick: 10 * time.Millisecond, Clock: clk, Queue: q}
	p.Drive(e, 10)
	if len(applied) != 20 {
		t.Fatalf("applied %d of 20 injections", len(applied))
	}
	for i, seq := range applied {
		if seq != uint64(i) {
			t.Fatalf("injection %d applied with seq %d: not in queue order", i, seq)
		}
	}
	for i := 1; i < len(atTimes); i++ {
		if atTimes[i] < atTimes[i-1] {
			t.Fatalf("injection times went backwards: %v after %v", atTimes[i], atTimes[i-1])
		}
	}
}

func TestPacedStop(t *testing.T) {
	e := New()
	p := &Paced{Speed: 0.001, Tick: time.Millisecond} // would take ~17 min of wall time
	done := make(chan struct{})
	go func() {
		p.Drive(e, 1)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) //df3:allow(detrand) test-only wait for the drive goroutine to start
	p.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not return after Stop")
	}
}

func TestInjectQueueClose(t *testing.T) {
	q := NewInjectQueue()
	if _, ok := q.Inject(func(uint64) {}); !ok {
		t.Fatal("inject into open queue refused")
	}
	q.Close()
	if _, ok := q.Inject(func(uint64) {}); ok {
		t.Fatal("inject into closed queue accepted")
	}
	if got := len(q.Drain()); got != 1 {
		t.Fatalf("drained %d items after close, want the 1 accepted before", got)
	}
}

// TestInjectQueueDrainSteadyStateAllocs: once the queue and its spare are
// sized, a cycle of injections and one drain allocates nothing, and each
// drained batch still holds exactly its own seqs in order.
func TestInjectQueueDrainSteadyStateAllocs(t *testing.T) {
	q := NewInjectQueue()
	fn := func(uint64) {}
	const perCycle = 256
	var next uint64
	cycle := func() {
		for i := 0; i < perCycle; i++ {
			q.Inject(fn)
		}
		batch := q.Drain()
		for i, inj := range batch {
			if inj.Seq != next+uint64(i) || inj.Fn == nil {
				t.Fatalf("batch item %d has seq %d, want %d", i, inj.Seq, next+uint64(i))
			}
		}
		if len(batch) != perCycle {
			t.Fatalf("drained %d injections, want %d", len(batch), perCycle)
		}
		next += perCycle
	}
	cycle() // sizes the queue
	cycle() // sizes the spare
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state inject/drain cycle allocates %v times, want 0", allocs)
	}
}

// TestPacedConcurrentInjection hammers the queue from many goroutines while
// a paced drive is applying — the -race exercise of the ingest boundary.
func TestPacedConcurrentInjection(t *testing.T) {
	e := New()
	q := NewInjectQueue()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var applied int
	p := &Paced{Speed: 1e6, Tick: 50 * time.Microsecond, Queue: q}

	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Inject(func(seq uint64) {
					// Runs on the driver goroutine; the engine is quiescent.
					e.After(0.001, func() {})
					mu.Lock()
					if seen[seq] {
						t.Errorf("seq %d applied twice", seq)
					}
					seen[seq] = true
					applied++
					mu.Unlock()
				})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		p.Drive(e, 1e9)
		close(done)
	}()
	wg.Wait()
	// Give the driver time to drain the tail, then stop it.
	for i := 0; i < 1000; i++ {
		if q.Len() == 0 {
			break
		}
		time.Sleep(time.Millisecond) //df3:allow(detrand) test-only polling for queue drain
	}
	p.Stop()
	<-done
	// Anything still queued was injected after the final drain; apply the
	// remainder through a manual drain so the count is exact.
	for _, inj := range q.Drain() {
		inj.Fn(inj.Seq)
	}
	if applied != producers*perProducer {
		t.Fatalf("applied %d of %d injections", applied, producers*perProducer)
	}
}
