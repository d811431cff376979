package main

import (
	"fmt"
	"time"

	"df3/internal/cliutil"
)

// daemonConfig is the parsed flag set, separated from main so the
// validation rules are unit-testable.
type daemonConfig struct {
	addr                      string
	buildings, rooms, boilers int
	seed                      uint64
	mtbf                      float64

	// Live mode.
	live           bool
	speed          float64
	maxSlice       float64
	cities, shards int
	arrivalLog     string
	ingestTimeout  time.Duration
	maxEdge        int
	maxDCC         int
	maxQueue       int

	// Crash safety (live mode).
	checkpointDir   string
	checkpointEvery float64
	walFsync        bool

	// Observability.
	pprofEnabled bool
	flight       int
	traceSample  int
	profile      bool

	// Offline replay mode.
	replay string
}

// defaultCheckpointEvery is the -checkpoint-every default, in simulated
// seconds: one checkpoint per simulated hour.
const defaultCheckpointEvery = 3600.0

// validate rejects invalid values and mutually exclusive combinations
// before the scenario is built. Live-only knobs on a step-driven daemon
// are configuration errors, not silent no-ops.
func (c daemonConfig) validate() error {
	la, err := cliutil.CheckListenAddr(c.addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	if la.Network != "tcp" {
		return fmt.Errorf("-addr %q: df3d serves HTTP over TCP (df3node accepts unix sockets)", c.addr)
	}
	if c.buildings < 1 || c.rooms < 1 {
		return fmt.Errorf("need at least 1 building and 1 room (have %d×%d)", c.buildings, c.rooms)
	}
	if c.boilers < 0 || c.boilers > c.buildings {
		return fmt.Errorf("-boilers %d out of range 0..%d", c.boilers, c.buildings)
	}
	if c.mtbf < 0 {
		return fmt.Errorf("-mtbf %v must be non-negative", c.mtbf)
	}
	if c.flight < 0 {
		return fmt.Errorf("-flight %d must be non-negative (0 disables the flight recorder)", c.flight)
	}
	if c.traceSample < 1 {
		return fmt.Errorf("-trace-sample %d: need a keep-1-in-N rate of at least 1", c.traceSample)
	}
	if c.traceSample != 1 && c.flight == 0 {
		return fmt.Errorf("-trace-sample tunes the flight recorder; it requires -flight")
	}
	if c.replay != "" {
		// Offline replay: rebuild the federation and re-execute a recorded
		// arrival log — no server, no pacing, no recording.
		switch {
		case c.live:
			return fmt.Errorf("-replay is an offline mode, drop -live")
		case c.arrivalLog != "":
			return fmt.Errorf("-replay reads an arrival log; -arrival-log records one — they are exclusive")
		case c.checkpointDir != "" || c.walFsync:
			return fmt.Errorf("checkpoint flags (-checkpoint-dir, -wal-fsync) require -live")
		case c.speed != 1:
			return fmt.Errorf("-speed requires -live (replay is batch, not paced)")
		case c.maxEdge != 0 || c.maxDCC != 0 || c.maxQueue != 0:
			return fmt.Errorf("admission flags (-max-inflight-edge, -max-inflight-dcc, -max-queue) require -live")
		case c.pprofEnabled || c.flight != 0 || c.profile:
			return fmt.Errorf("observability flags (-pprof, -flight, -profile) serve live traffic; drop them for -replay")
		}
		if err := c.validateFederation(); err != nil {
			return err
		}
		return nil
	}
	if !c.live {
		// The step-driven daemon is a single deterministic city; every
		// live-plane knob is meaningless without -live.
		switch {
		case c.speed != 1:
			return fmt.Errorf("-speed requires -live")
		case c.cities != 1:
			return fmt.Errorf("-cities requires -live (the step daemon serves one city)")
		case c.shards != 1:
			return fmt.Errorf("-shards requires -live")
		case c.arrivalLog != "":
			return fmt.Errorf("-arrival-log requires -live")
		case c.maxEdge != 0 || c.maxDCC != 0 || c.maxQueue != 0:
			return fmt.Errorf("admission flags (-max-inflight-edge, -max-inflight-dcc, -max-queue) require -live")
		case c.checkpointDir != "" || c.walFsync:
			return fmt.Errorf("checkpoint flags (-checkpoint-dir, -wal-fsync) require -live")
		case c.flight != 0:
			return fmt.Errorf("-flight requires -live (the flight recorder rides the live ingest plane)")
		case c.profile:
			return fmt.Errorf("-profile requires -live (the shard profiler needs the sharded kernel)")
		}
		return nil
	}
	if c.speed <= 0 {
		return fmt.Errorf("-speed %v: need a positive time-scale", c.speed)
	}
	if c.maxSlice <= 0 {
		return fmt.Errorf("-max-slice %v: need a positive slice bound", c.maxSlice)
	}
	if err := c.validateFederation(); err != nil {
		return err
	}
	if c.ingestTimeout <= 0 {
		return fmt.Errorf("-ingest-timeout %v: need a positive wall bound", c.ingestTimeout)
	}
	if c.maxEdge < 0 || c.maxDCC < 0 || c.maxQueue < 0 {
		return fmt.Errorf("admission limits must be non-negative (edge %d, dcc %d, queue %d)",
			c.maxEdge, c.maxDCC, c.maxQueue)
	}
	if c.arrivalLog != "" {
		if err := cliutil.CheckWritableFile(c.arrivalLog); err != nil {
			return fmt.Errorf("-arrival-log: %w", err)
		}
	}
	if c.checkpointDir == "" && c.checkpointEvery != defaultCheckpointEvery && c.checkpointEvery != 0 {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	if c.checkpointDir != "" {
		// The WAL is what recovery replays, all of it; a checkpoint is the
		// point where the replay is verified. A checkpoint alone cannot
		// recover.
		if c.arrivalLog == "" {
			return fmt.Errorf("-checkpoint-dir requires -arrival-log (the arrival log is the WAL recovery replays)")
		}
		if c.checkpointEvery <= 0 {
			return fmt.Errorf("-checkpoint-every %v: need a positive simulated period", c.checkpointEvery)
		}
	}
	if c.walFsync && c.arrivalLog == "" {
		return fmt.Errorf("-wal-fsync requires -arrival-log")
	}
	return nil
}

// validateFederation checks the shape flags shared by live and replay
// modes (both build a federation).
func (c daemonConfig) validateFederation() error {
	if c.cities < 1 {
		return fmt.Errorf("-cities %d: need at least one city", c.cities)
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards %d: need at least one shard", c.shards)
	}
	if c.shards > c.cities {
		return fmt.Errorf("-shards %d exceeds -cities %d: a city is the unit of parallelism", c.shards, c.cities)
	}
	if c.mtbf > 0 && c.cities > 1 {
		return fmt.Errorf("-mtbf fault injection is single-city only for now")
	}
	return nil
}
