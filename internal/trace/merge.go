package trace

// Merge folds another recorder's spans, processes and hygiene
// counters into r, remapping span and process identities so nothing
// collides. Sharded runs record into one private recorder per shard (the
// simulation stays single-threaded within a shard, and recorders are not
// concurrency-safe); at export the per-shard recorders merge into one, in a
// deterministic caller-chosen order, so a federation trace opens in
// Perfetto as one file with one named process per traced scenario.
//
// Completed spans keep their completion order within each source; open
// spans remain open (they surface in OpenSpans as usual). Trace ids are
// caller-owned and pass through untouched — cross-recorder grouping is by
// process, which is remapped. Merging into or from a nil recorder is a
// no-op. The capacity bound of r applies: merged spans beyond it evict the
// oldest, advancing the dropped counter exactly as live recording would.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	idBase := r.nextSpan
	procBase := len(r.procs)
	r.procs = append(r.procs, src.procs...)

	remap := func(sp Span) Span {
		sp.ID += idBase
		if sp.Parent != 0 {
			sp.Parent += idBase
		}
		if sp.Proc != 0 {
			sp.Proc += procBase
		}
		return sp
	}
	for _, sp := range src.Spans() {
		r.pushSpan(remap(sp))
	}
	src.eachOpen(func(sp Span) {
		sp = remap(sp)
		*r.newOpen(sp.ID) = sp
	})
	r.nextSpan += src.nextSpan
	r.unmatchedEnds += src.unmatchedEnds
	r.orphanBegins += src.orphanBegins
	r.spDropped += src.spDropped
}
