package api

import "sync"

// AdmissionConfig bounds the live ingest plane. A request that would push a
// class past its in-flight limit, or the injection queue past MaxQueue, is
// shed with 429 instead of admitted — load-shedding at the front door, so
// the paced engine never accumulates an unbounded backlog it can only burn
// down by falling behind the wall clock.
type AdmissionConfig struct {
	// MaxInFlightEdge caps concurrently admitted edge requests (waiting
	// for injection or for their simulated outcome). 0 = default 4096.
	MaxInFlightEdge int
	// MaxInFlightDCC caps concurrently admitted batch jobs. 0 = default 256.
	MaxInFlightDCC int
	// MaxQueue caps the injection queue depth (arrivals accepted but not
	// yet drained into the engine). 0 = default 16384.
	MaxQueue int
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlightEdge == 0 {
		c.MaxInFlightEdge = 4096
	}
	if c.MaxInFlightDCC == 0 {
		c.MaxInFlightDCC = 256
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16384
	}
	return c
}

// Admission classes.
const (
	ClassEdge = "edge"
	ClassDCC  = "dcc"
)

// lineClass indexes the admission classes, so the per-line paths (admit,
// release, settle) index arrays instead of string-keyed maps; a line's
// class is resolved once, when it is read.
type lineClass uint8

const (
	lineEdge lineClass = iota
	lineDCC
	numLineClasses
)

// classNames are the classes' label values.
var classNames = [numLineClasses]string{ClassEdge, ClassDCC}

// admission is the per-class in-flight ledger. Admit/Release run on handler
// goroutines and the driver goroutine; one small mutex serialises them —
// the critical section is two integer ops, so contention at 10k req/s is
// noise next to the HTTP stack.
type admission struct {
	mu       sync.Mutex
	limits   [numLineClasses]int
	inflight [numLineClasses]int
	queueCap int
	queueLen func() int
}

func newAdmission(cfg AdmissionConfig, queueLen func() int) *admission {
	cfg = cfg.withDefaults()
	return &admission{
		limits:   [numLineClasses]int{lineEdge: cfg.MaxInFlightEdge, lineDCC: cfg.MaxInFlightDCC},
		queueCap: cfg.MaxQueue,
		queueLen: queueLen,
	}
}

// Admit reserves an in-flight slot for class, or reports shed=false when
// the class is at its limit or the injection queue is full.
func (a *admission) Admit(class lineClass) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inflight[class] >= a.limits[class] {
		return false
	}
	if a.queueLen != nil && a.queueLen() >= a.queueCap {
		return false
	}
	a.inflight[class]++
	return true
}

// Release returns an admitted slot.
func (a *admission) Release(class lineClass) {
	a.mu.Lock()
	if a.inflight[class] > 0 {
		a.inflight[class]--
	}
	a.mu.Unlock()
}

// InFlight returns the current admitted count for class.
func (a *admission) InFlight(class lineClass) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight[class]
}
