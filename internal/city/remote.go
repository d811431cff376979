package city

import (
	"encoding/binary"
	"fmt"
	"math"

	"df3/internal/shard"
	"df3/internal/units"
	"df3/internal/workload"
)

// The federation's cross-LP message codec. Inter-city traffic travels
// through the shard kernel as (kind, payload) messages rather than
// closures, so the same scenario runs unchanged whether its cities share
// a process or are partitioned across df3node workers: the payload
// crosses the wire, the decoder below rebuilds the identical event on
// the destination node. Encoding is little-endian and bit-exact
// (float64s as their IEEE bits), because a decoded job must be
// indistinguishable from a locally-constructed one.

// MsgKindInterCityJob tags a batch job shipped between member cities.
const MsgKindInterCityJob uint32 = 1

// encodeJob serialises a batch job payload.
func encodeJob(j workload.BatchJob) []byte {
	buf := make([]byte, 0, 8+8+8+4+8*len(j.TaskWork))
	buf = binary.LittleEndian.AppendUint64(buf, j.ID)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(j.Input)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(j.Output)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(j.TaskWork)))
	for _, w := range j.TaskWork {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	return buf
}

// decodeJob is encodeJob's exact inverse.
func decodeJob(p []byte) (workload.BatchJob, error) {
	var j workload.BatchJob
	if len(p) < 28 {
		return j, fmt.Errorf("city: job payload %d bytes, want at least 28", len(p))
	}
	j.ID = binary.LittleEndian.Uint64(p[0:8])
	j.Input = units.Byte(math.Float64frombits(binary.LittleEndian.Uint64(p[8:16])))
	j.Output = units.Byte(math.Float64frombits(binary.LittleEndian.Uint64(p[16:24])))
	n := int(binary.LittleEndian.Uint32(p[24:28]))
	if len(p) != 28+8*n {
		return j, fmt.Errorf("city: job payload %d bytes for %d tasks, want %d", len(p), n, 28+8*n)
	}
	j.TaskWork = make([]float64, n)
	for i := range j.TaskWork {
		j.TaskWork[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[28+8*i:]))
	}
	return j, nil
}

// decodeMsg is the federation's shard.Decoder: it turns a payload
// message into the event closure its sender would have enqueued locally.
func (f *Federation) decodeMsg(dst *shard.LP, kind uint32, payload []byte) (func(), error) {
	switch kind {
	case MsgKindInterCityJob:
		job, err := decodeJob(payload)
		if err != nil {
			return nil, err
		}
		dstCity := dst.ID
		c := f.Cities[dstCity]
		return func() {
			f.imported[dstCity]++
			b := c.Buildings[int(job.ID%uint64(len(c.Buildings)))]
			c.MW.SubmitDCC(b.Cluster, c.Operator, job)
		}, nil
	default:
		return nil, fmt.Errorf("city: unknown federation message kind %d", kind)
	}
}

// Restrict marks this federation as one node's partition of a multi-node
// run: only the owned cities (global city IDs, ascending) execute
// locally, repartitioned contiguously over the node's cfg.Shards
// workers. The rest of the federation stays built — same recipe, same
// substreams, provably the same scenario — but never advances; its
// traffic arrives through the coordinator's Deliver path. Call once,
// before any window runs.
func (f *Federation) Restrict(owned []int) {
	if len(owned) == 0 {
		panic("city: Restrict to zero cities")
	}
	for i, ci := range owned {
		if ci < 0 || ci >= len(f.Cities) {
			panic(fmt.Sprintf("city: Restrict to city %d of %d", ci, len(f.Cities)))
		}
		if i > 0 && owned[i-1] >= ci {
			panic("city: Restrict cities must be ascending and unique")
		}
	}
	shards := f.Cfg.Shards
	if shards > len(owned) {
		shards = len(owned)
	}
	sub := shard.PartitionContiguous(len(owned), shards, nil)
	assign := make([]int, len(f.Cities))
	for idx, ci := range owned {
		assign[ci] = sub[idx]
	}
	f.Kernel.Partition(assign)
	f.Kernel.Own(owned)
	f.partition = assign
}
