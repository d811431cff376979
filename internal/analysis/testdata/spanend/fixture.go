// Fixture for spanend: a locally-scoped trace span must be ended on every
// path out of its block, or explicitly escape to a new owner.
package fixture

import (
	"df3/internal/sim"
	"df3/internal/trace"
)

func leakyReturn(r *trace.Recorder, now sim.Time) {
	id := r.BeginSpan(now, "stage", 1, 0)
	if now > 0 {
		return // want `return leaks span id`
	}
	r.EndSpan(now+1, id)
}

func fallsThrough(r *trace.Recorder, now sim.Time) {
	id := r.BeginSpan(now, "stage", 1, 0) // want `span id is not ended when its block falls through`
	if now > 0 {
		r.EndSpan(now, id)
	}
}

// A deferred end covers every later exit.
func deferred(r *trace.Recorder, now sim.Time) {
	id := r.BeginSpan(now, "stage", 1, 0)
	defer r.EndSpan(now+1, id)
	if now > 0 {
		return
	}
}

// Ending on each branch is fine.
func branches(r *trace.Recorder, now sim.Time) {
	id := r.BeginSpan(now, "stage", 1, 0)
	if now > 0 {
		r.EndSpanDetail(now, id, "early")
		return
	}
	r.EndSpan(now+1, id)
}

// The id escapes: ownership (and the obligation to end) transfers to the
// caller, so the local analysis stands down.
func escapes(r *trace.Recorder, now sim.Time) trace.SpanID {
	id := r.BeginSpan(now, "stage", 1, 0)
	return id
}
