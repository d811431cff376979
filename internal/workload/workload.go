// Package workload generates the request streams of the DF3 model's two
// computing flows (§II-C):
//
//   - Internet (DCC) requests: batch jobs — 3D rendering frames and
//     Monte-Carlo financial pricing, the actual customers of the Qarnot
//     platform the paper cites — arriving through the operator middleware.
//   - Local (edge) requests: latency-bound inference triggered by building
//     sensors, modelled on the audio alarm-detection application of ref
//     [11], plus periodic sense-compute-actuate loops.
//
// Heating requests (the first flow) are setpoint schedules and live in
// package regulator.
//
// All generators are deterministic given their stream and run on the
// simulation engine via callbacks.
package workload

import (
	"math"

	"df3/internal/rng"
	"df3/internal/sim"
	"df3/internal/units"
)

// EdgeRequest is one latency-bound local computing request.
type EdgeRequest struct {
	ID uint64
	// Work is core-seconds at full speed.
	Work float64
	// Deadline is the relative latency bound for the response.
	Deadline sim.Time
	// Input and Output are the payload sizes.
	Input, Output units.Byte
	// Device indexes the emitting device within its building.
	Device int
}

// BatchJob is one Internet/DCC job: a bag of independent single-core tasks
// (render frames, Monte-Carlo batches).
type BatchJob struct {
	ID uint64
	// TaskWork holds the work of each task in core-seconds.
	TaskWork []float64
	// Input and Output are per-task payload sizes.
	Input, Output units.Byte
}

// TotalWork returns the summed work of all tasks.
func (j *BatchJob) TotalWork() float64 {
	s := 0.0
	for _, w := range j.TaskWork {
		s += w
	}
	return s
}

// EdgeGen emits alarm-detection style edge requests as a Markov-modulated
// Poisson process: long calm stretches, short bursts when something happens
// in the building.
type EdgeGen struct {
	Stream *rng.Stream
	// CalmRate and BurstRate are arrivals/second in each MMPP state.
	CalmRate, BurstRate float64
	// CalmHold and BurstHold are the mean state sojourns in seconds.
	CalmHold, BurstHold float64
	// MeanWork is the mean inference work in core-seconds.
	MeanWork float64
	// Deadline is the relative response bound.
	Deadline sim.Time
	// Devices is the number of emitting devices to attribute requests to.
	Devices int

	nextID uint64
}

// DefaultEdgeGen returns the reference alarm-detection generator: ~50 ms
// inferences with a 500 ms bound on 16 kB audio windows.
func DefaultEdgeGen(stream *rng.Stream, devices int) *EdgeGen {
	return &EdgeGen{
		Stream:    stream,
		CalmRate:  0.2,
		BurstRate: 6,
		CalmHold:  600,
		BurstHold: 20,
		MeanWork:  0.05,
		Deadline:  0.5,
		Devices:   devices,
	}
}

// Start emits requests on the engine until `until`, invoking submit for
// each. Work is lognormal around MeanWork (σ=0.4); payloads are a 16 kB
// audio window in and a 200 B verdict out.
func (g *EdgeGen) Start(e *sim.Engine, until sim.Time, submit func(r EdgeRequest)) {
	m := rng.NewMMPP(g.Stream.Fork(1), g.CalmRate, g.BurstRate, g.CalmHold, g.BurstHold)
	body := g.Stream.Fork(2)
	// fire is built once and re-armed for every arrival.
	var fire func()
	schedule := func() {
		if at := m.Next(); at <= until {
			e.AtTransient(at, fire)
		}
	}
	fire = func() {
		g.nextID++
		r := EdgeRequest{
			ID:       g.nextID,
			Work:     g.MeanWork * body.LogNormal(0, 0.4),
			Deadline: g.Deadline,
			Input:    16 * units.KB,
			Output:   200,
		}
		if g.Devices > 0 {
			r.Device = body.Intn(g.Devices)
		}
		submit(r)
		schedule()
	}
	schedule()
}

// SenseLoop is a periodic sense-compute-actuate device (§III-B): every
// Period it emits a small fixed-work request with a bound of one period.
type SenseLoop struct {
	Period sim.Time
	Work   float64
	Input  units.Byte
	Output units.Byte
	Device int

	nextID uint64
}

// Start emits one request per period until `until`. Loops share the
// engine's tick domain for their period, so a city of sense loops costs
// one heap event per round.
func (s *SenseLoop) Start(e *sim.Engine, until sim.Time, submit func(r EdgeRequest)) {
	var sub *sim.Sub
	sub = e.Domain(s.Period).Subscribe(func(now sim.Time) {
		if now > until {
			sub.Stop()
			return
		}
		s.nextID++
		submit(EdgeRequest{
			ID:       s.nextID,
			Work:     s.Work,
			Deadline: s.Period,
			Input:    s.Input,
			Output:   s.Output,
			Device:   s.Device,
		})
	})
}

// DCCGen emits batch jobs with Poisson arrivals modulated by business hours
// (the paper notes Internet request arrivals follow business opportunity,
// not seasons, §II-C).
type DCCGen struct {
	Stream   *rng.Stream
	Calendar sim.Calendar
	// BaseRate is the mean arrival rate in jobs/second at business hours.
	BaseRate float64
	// NightFactor scales the rate outside business hours.
	NightFactor float64
	// FramesMin/FramesMax bound the per-job task count (uniform).
	FramesMin, FramesMax int
	// WorkMin is the minimum per-task work; tasks are Pareto(WorkMin,
	// WorkAlpha), the heavy tail measured on render farms.
	WorkMin   float64
	WorkAlpha float64

	nextID uint64
}

// DefaultDCCGen returns the reference render-farm generator: jobs of
// 20–80 frames, frames of 2+ minutes with a Pareto tail.
func DefaultDCCGen(stream *rng.Stream, cal sim.Calendar, rate float64) *DCCGen {
	return &DCCGen{
		Stream:      stream,
		Calendar:    cal,
		BaseRate:    rate,
		NightFactor: 0.25,
		FramesMin:   20,
		FramesMax:   80,
		WorkMin:     120,
		WorkAlpha:   2.2,
	}
}

// rate returns the arrival rate at time t.
func (g *DCCGen) rate(t sim.Time) float64 {
	h := g.Calendar.HourOfDay(t)
	if h >= 8 && h < 20 && !g.Calendar.IsWeekend(t) {
		return g.BaseRate
	}
	return g.BaseRate * g.NightFactor
}

// Start emits jobs until `until` by thinning a Poisson process at the peak
// rate (exact for piecewise-constant rates).
func (g *DCCGen) Start(e *sim.Engine, until sim.Time, submit func(j BatchJob)) {
	arr := g.Stream.Fork(1)
	body := g.Stream.Fork(2)
	peak := g.BaseRate
	var schedule func(from sim.Time)
	schedule = func(from sim.Time) {
		at := from + arr.Exp(peak)
		if at > until {
			return
		}
		e.AtTransient(at, func() {
			// Thinning: accept with prob rate(at)/peak.
			if arr.Float64() < g.rate(at)/peak {
				submit(g.makeJob(body))
			}
			schedule(at)
		})
	}
	schedule(0)
}

// makeJob draws one batch job.
func (g *DCCGen) makeJob(s *rng.Stream) BatchJob {
	g.nextID++
	n := g.FramesMin
	if g.FramesMax > g.FramesMin {
		n += s.Intn(g.FramesMax - g.FramesMin + 1)
	}
	j := BatchJob{
		ID:       g.nextID,
		TaskWork: make([]float64, n),
		Input:    5 * units.MB,
		Output:   2 * units.MB,
	}
	for i := range j.TaskWork {
		j.TaskWork[i] = s.Pareto(g.WorkMin, g.WorkAlpha)
	}
	return j
}

// RenderCampaign builds the fixed-size batch of the paper's 2016 figures —
// 600 000 images for 11 000 000 CPU-hours — scaled down by `scale` (e.g.
// 1000 gives 600 frames totalling 11 000 CPU-hours of work).
func RenderCampaign(stream *rng.Stream, scale int) BatchJob {
	const frames = 600000
	const cpuHours = 11000000
	n := frames / scale
	meanWork := float64(cpuHours) * 3600 / float64(frames)
	j := BatchJob{ID: 1, TaskWork: make([]float64, n), Input: 5 * units.MB, Output: 2 * units.MB}
	// Lognormal with the campaign's mean: σ=0.6, μ adjusted so the mean
	// matches exp(μ+σ²/2)=meanWork.
	const sigma = 0.6
	mu := math.Log(meanWork) - sigma*sigma/2
	for i := range j.TaskWork {
		j.TaskWork[i] = stream.LogNormal(mu, sigma)
	}
	return j
}
