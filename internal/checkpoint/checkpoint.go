package checkpoint

import (
	"fmt"
	"io"

	"df3/internal/city"
	"df3/internal/sim"
)

// Meta is the fixed-size header block of a snapshot. The statefp
// contract keeps Encode and Read covering every field, so a new header
// field cannot ship with a reader that silently drops it.
//
//df3:statefp df3/internal/checkpoint.Snapshot.Encode df3/internal/checkpoint.Read
type Meta struct {
	// SimTime is the federation clock at capture.
	SimTime sim.Time
	// Checksum is Federation.Checksum at SimTime — the one-number summary
	// a restore must reproduce.
	Checksum uint64
	// NextSeq is the injection sequence counter the serving plane resumes
	// at (0 for batch runs, which have no external inputs).
	NextSeq uint64
	// WALOffset is the durable arrival-log length, in bytes, this snapshot
	// covers: everything before it was flushed and fsynced before the
	// snapshot was written, so recovery replays the log to WALOffset and
	// treats only the suffix as a possibly-torn crash tail.
	WALOffset int64
	// Horizon is the simulated end of the run that wrote the snapshot.
	// df3d records its live horizon here, but its recovery runs to its
	// own configured horizon, so the field is informational.
	Horizon sim.Time
	// Cities and Shards describe the federation shape (redundant with the
	// config recipe, but cheap to validate before a full rebuild).
	Cities, Shards int
}

// Snapshot is one decoded checkpoint.
type Snapshot struct {
	Meta Meta
	// Config is the caller-opaque build recipe (df3d stores JSON). A
	// restore must rebuild from a byte-identical recipe; Verify checks it
	// when the caller passes the current recipe.
	Config []byte
	// Engines is the per-city (per-shard LP) engine state, in city order.
	Engines []sim.EngineState
	// Partition is the city→shard assignment — the merge metadata that
	// makes per-shard snapshots compose deterministically.
	Partition []int
}

// Capture snapshots a quiescent federation. The caller supplies the parts
// the federation cannot know: its own build recipe and the serving-plane
// cursors (NextSeq, WALOffset, Horizon) already filled into meta; SimTime,
// Checksum, Cities, Shards and the state sections are read from f.
func Capture(f *city.Federation, meta Meta, config []byte) *Snapshot {
	meta.SimTime = f.Now()
	meta.Checksum = f.Checksum()
	meta.Cities = len(f.Cities)
	meta.Shards = f.Kernel.Shards()
	return &Snapshot{
		Meta:      meta,
		Config:    append([]byte(nil), config...),
		Engines:   f.EngineStates(),
		Partition: f.Partition(),
	}
}

// Verify proves a rebuilt-and-replayed federation reached exactly the
// snapshotted state: shape, partition, every engine's kernel state, and
// the federation checksum. config, when non-nil, must match the recipe
// sealed in the snapshot. Any divergence is fatal for a restore —
// continuing would silently fork history.
func Verify(f *city.Federation, s *Snapshot, config []byte) error {
	if config != nil && string(config) != string(s.Config) {
		return fmt.Errorf("checkpoint: build recipe mismatch: snapshot sealed %s, rebuilding with %s", s.Config, config)
	}
	if got := len(f.Cities); got != s.Meta.Cities {
		return fmt.Errorf("checkpoint: rebuilt federation has %d cities, snapshot %d", got, s.Meta.Cities)
	}
	if got := f.Kernel.Shards(); got != s.Meta.Shards {
		return fmt.Errorf("checkpoint: rebuilt federation has %d shards, snapshot %d", got, s.Meta.Shards)
	}
	part := f.Partition()
	if len(part) != len(s.Partition) {
		return fmt.Errorf("checkpoint: partition length %d, snapshot %d", len(part), len(s.Partition))
	}
	for i := range part {
		if part[i] != s.Partition[i] {
			return fmt.Errorf("checkpoint: city %d on shard %d, snapshot had shard %d", i, part[i], s.Partition[i])
		}
	}
	if got := f.Now(); got != s.Meta.SimTime {
		return fmt.Errorf("checkpoint: rebuilt federation at sim time %v, snapshot at %v", got, s.Meta.SimTime)
	}
	if err := f.RestoreEngineStates(s.Engines); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if got := f.Checksum(); got != s.Meta.Checksum {
		return fmt.Errorf("checkpoint: rebuilt checksum %#x, snapshot %#x", got, s.Meta.Checksum)
	}
	return nil
}

// Encode writes the snapshot as one container.
func (s *Snapshot) Encode(w io.Writer) error {
	var meta binWriter
	meta.f64(float64(s.Meta.SimTime))
	meta.u64(s.Meta.Checksum)
	meta.u64(s.Meta.NextSeq)
	meta.i64(s.Meta.WALOffset)
	meta.f64(float64(s.Meta.Horizon))
	meta.u32(uint32(s.Meta.Cities))
	meta.u32(uint32(s.Meta.Shards))

	var eng binWriter
	eng.u32(uint32(len(s.Engines)))
	for _, e := range s.Engines {
		eng.f64(float64(e.Now))
		eng.u64(e.Seq)
		eng.u64(e.Fired)
		eng.u64(uint64(e.Pending))
		eng.u64(e.HeapDigest)
	}

	var part binWriter
	part.u32(uint32(len(s.Partition)))
	for _, p := range s.Partition {
		part.u32(uint32(p))
	}

	return writeContainer(w, []Section{
		{Kind: SectionMeta, Data: meta.buf},
		{Kind: SectionConfig, Data: s.Config},
		{Kind: SectionEngines, Data: eng.buf},
		{Kind: SectionPartition, Data: part.buf},
	})
}

// Read parses and validates one snapshot.
func Read(r io.Reader) (*Snapshot, error) {
	sections, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	var haveMeta, haveEngines, havePartition bool
	for _, sec := range sections {
		switch sec.Kind {
		case SectionMeta:
			br := binReader{buf: sec.Data}
			s.Meta.SimTime = sim.Time(br.f64())
			s.Meta.Checksum = br.u64()
			s.Meta.NextSeq = br.u64()
			s.Meta.WALOffset = br.i64()
			s.Meta.Horizon = sim.Time(br.f64())
			s.Meta.Cities = int(br.u32())
			s.Meta.Shards = int(br.u32())
			if br.err != nil {
				return nil, fmt.Errorf("meta section: %w", br.err)
			}
			if br.leftover() {
				return nil, fmt.Errorf("%w: meta section has %d trailing bytes", ErrCorrupt, len(br.buf))
			}
			haveMeta = true
		case SectionConfig:
			s.Config = sec.Data
		case SectionEngines:
			br := binReader{buf: sec.Data}
			n := int(br.u32())
			const maxEngines = 1 << 24
			if br.err == nil && n > maxEngines {
				return nil, fmt.Errorf("%w: engines section claims %d engines", ErrCorrupt, n)
			}
			for i := 0; i < n && br.err == nil; i++ {
				s.Engines = append(s.Engines, sim.EngineState{
					Now:        sim.Time(br.f64()),
					Seq:        br.u64(),
					Fired:      br.u64(),
					Pending:    int(br.u64()),
					HeapDigest: br.u64(),
				})
			}
			if br.err != nil {
				return nil, fmt.Errorf("engines section: %w", br.err)
			}
			if br.leftover() {
				return nil, fmt.Errorf("%w: engines section has %d trailing bytes", ErrCorrupt, len(br.buf))
			}
			haveEngines = true
		case SectionPartition:
			br := binReader{buf: sec.Data}
			n := int(br.u32())
			const maxCities = 1 << 24
			if br.err == nil && n > maxCities {
				return nil, fmt.Errorf("%w: partition section claims %d cities", ErrCorrupt, n)
			}
			for i := 0; i < n && br.err == nil; i++ {
				s.Partition = append(s.Partition, int(br.u32()))
			}
			if br.err != nil {
				return nil, fmt.Errorf("partition section: %w", br.err)
			}
			havePartition = true
		default:
			// Unknown optional section from a newer writer: skip.
		}
	}
	if !haveMeta || !haveEngines || !havePartition {
		return nil, fmt.Errorf("%w: missing required section (meta %v, engines %v, partition %v)",
			ErrCorrupt, haveMeta, haveEngines, havePartition)
	}
	if len(s.Engines) != s.Meta.Cities {
		return nil, fmt.Errorf("%w: %d engine states for %d cities", ErrCorrupt, len(s.Engines), s.Meta.Cities)
	}
	if len(s.Partition) != s.Meta.Cities {
		return nil, fmt.Errorf("%w: partition covers %d of %d cities", ErrCorrupt, len(s.Partition), s.Meta.Cities)
	}
	return s, nil
}
