package main

import (
	"strconv"

	"df3/internal/rng"
)

// Edge arrivals as df3load draws them: a Zipf tenant mix, exponential
// work with a 50 ms mean and a 1 s deadline. live-ingest sends them as
// NDJSON lines; wal-recovery writes them as WAL records.
const (
	genTenants  = 1000
	genZipfS    = 1.2
	genMeanWork = 0.05
	genDeadline = 1.0
	// minWork keeps every draw a valid (positive) edge request.
	minWork = 1e-6
)

// edgeGen draws edge arrivals from one seeded stream.
type edgeGen struct {
	s    *rng.Stream
	zipf *rng.Zipf
}

func newEdgeGen(seed uint64, label string) *edgeGen {
	s := rng.New(seed).ForkNamed(label)
	return &edgeGen{s: s, zipf: rng.NewZipf(s.ForkNamed("tenants"), genTenants, genZipfS)}
}

// next returns one arrival's tenant and work.
func (g *edgeGen) next() (tenant uint64, work float64) {
	tenant = uint64(g.zipf.Draw())
	work = max(g.s.Exp(1/genMeanWork), minWork)
	return tenant, work
}

// appendEdgeLine appends one /v1/ingest NDJSON line. Work is written in
// shortest round-trip form, so it never reads back as 0.
func appendEdgeLine(b []byte, tenant uint64, work float64) []byte {
	b = append(b, `{"kind":"edge","tenant":`...)
	b = strconv.AppendUint(b, tenant, 10)
	b = append(b, `,"work_s":`...)
	b = strconv.AppendFloat(b, work, 'g', -1, 64)
	b = append(b, `,"deadline_s":`...)
	b = strconv.AppendFloat(b, genDeadline, 'g', -1, 64)
	return append(b, "}\n"...)
}

// batchBody draws one NDJSON batch of n edge lines.
func (g *edgeGen) batchBody(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		t, w := g.next()
		b = appendEdgeLine(b, t, w)
	}
	return b
}
