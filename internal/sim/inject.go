package sim

import "sync"

// Injection is one externally submitted event awaiting application: a
// callback plus the monotone sequence number the queue stamped it with.
// The sequence is the queue's arrival order — the only order injections
// are ever applied in — so the interleaving of external traffic with the
// simulation is fully described by (application time, seq), which is what
// makes a recorded live session replayable.
type Injection struct {
	Seq uint64
	Fn  func(seq uint64)
}

// InjectQueue is the thread-safe boundary between wall-clock producers
// (HTTP handlers, load generators) and a single-threaded simulation. Any
// goroutine may Inject; a driver drains the queue between engine slices
// and applies the injections, in seq order, at the simulation's current
// time. The queue itself never touches the engine.
type InjectQueue struct {
	mu    sync.Mutex
	items []Injection
	// spare is the batch Drain handed out last; the next Drain reuses it
	// as the queue, so a steady drain cycle never regrows a slice.
	spare  []Injection
	seq    uint64
	closed bool
}

// NewInjectQueue returns an empty open queue.
func NewInjectQueue() *InjectQueue { return &InjectQueue{} }

// Inject appends fn to the queue and returns its sequence number. fn runs
// later, on the driver's goroutine, with the stamped seq as its argument.
// Injecting into a closed queue reports ok == false and the fn is dropped.
func (q *InjectQueue) Inject(fn func(seq uint64)) (seq uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, false
	}
	seq = q.seq
	q.seq++
	q.items = append(q.items, Injection{Seq: seq, Fn: fn})
	return seq, true
}

// NextSeq returns the sequence number the next accepted injection will be
// stamped with. Checkpoints record it so a recovered session can resume
// the numbering without reusing a seq that already reached durable state.
func (q *InjectQueue) NextSeq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.seq
}

// ResumeAt raises the sequence counter to at least next. A recovered
// serving plane calls it with (last durable seq + 1) before accepting
// traffic, so post-recovery injections never collide with replayed ones.
// Lowering the counter is impossible — seqs are never reissued.
func (q *InjectQueue) ResumeAt(next uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if next > q.seq {
		q.seq = next
	}
}

// Drain removes and returns all pending injections in seq order. Only the
// driving goroutine should call it. The returned batch is valid until the
// next Drain, which reuses its backing array for the queue.
func (q *InjectQueue) Drain() []Injection {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	out := q.items
	clear(q.spare) // drop the last batch's closures before reuse
	q.items = q.spare[:0]
	q.spare = out
	return out
}

// Len returns the number of pending injections — the ingest queue depth a
// load-shedding layer bounds.
func (q *InjectQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close rejects further injections. Pending items stay drainable, so a
// shutting-down driver can finish applying what was already accepted.
func (q *InjectQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
}
