package wire

import (
	"bytes"
	"testing"

	"df3/internal/shard"
	"df3/internal/sim"
)

// BenchmarkFrameRoundTrip measures one lockstep exchange through the frame
// layer over an in-memory stream, as Client.roundTrip and Serve make it:
// the request encoded, framed from the coordinator's frame buffers and
// read by the worker's, then the reply encoded, framed by the worker,
// read and decoded by the coordinator. allocs/op counts what the codec
// and the frame layer allocate per exchange; the stream itself stops
// growing after the first.
func BenchmarkFrameRoundTrip(b *testing.B) {
	b.Run("propose-next", func(b *testing.B) {
		var stream bytes.Buffer
		var coord, worker frameBuf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := coord.write(&stream, FramePropose, nil); err != nil {
				b.Fatal(err)
			}
			if _, _, err := worker.read(&stream); err != nil {
				b.Fatal(err)
			}
			if err := worker.write(&stream, FrameNext, EncodeNext(Next{Has: true, T: sim.Time(i)})); err != nil {
				b.Fatal(err)
			}
			_, p, err := coord.read(&stream)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeNext(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window-result", func(b *testing.B) {
		// A window whose result carries 16 boundary messages, each with
		// an encoded inter-city job's worth of payload.
		res := shard.WindowResult{PerShard: []uint64{900, 700}, Sent: 40, CrossShard: 12}
		for m := 0; m < 16; m++ {
			res.Msgs = append(res.Msgs, shard.Msg{
				At: 3600 + sim.Time(m), Src: m % 4, Dst: 4 + m%4, Seq: uint64(m),
				Size: 2e6, Delay: 0.25, Kind: 1, Payload: make([]byte, 200),
			})
		}
		var stream bytes.Buffer
		var coord, worker frameBuf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := coord.write(&stream, FrameWindow, EncodeWindow(sim.Time(i))); err != nil {
				b.Fatal(err)
			}
			_, p, err := worker.read(&stream)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeWindow(p); err != nil {
				b.Fatal(err)
			}
			if err := worker.write(&stream, FrameResult, EncodeResult(res)); err != nil {
				b.Fatal(err)
			}
			if _, p, err = coord.read(&stream); err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeResult(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
