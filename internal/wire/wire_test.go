package wire

import (
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"df3/internal/city"
	"df3/internal/shard"
)

func testSpec() city.Spec {
	return city.Spec{
		Seed: 11, Cities: 5, Buildings: 4, Rooms: 3, Boilers: 1,
		Days: 0.25, EdgeRate: 0.5, DCCRate: 2, InterCity: 6,
	}
}

// startWorker runs a Serve session over one end of a pipe and returns a
// connected Client plus the session's exit channel.
func startWorker(t *testing.T, name string) (*Client, chan error) {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(sc, ServeOptions{Timeout: time.Minute}) }()
	cl, err := NewClient(cc, name, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return cl, done
}

// TestSessionMatchesSerial is the full protocol equivalence proof in one
// process: two Serve sessions behind wire.Clients, driven by shard.Sync,
// must reproduce the serial run's per-city records and checksum exactly.
func TestSessionMatchesSerial(t *testing.T) {
	spec := testSpec()
	serial := spec.Build(1)
	serial.Run(spec.Until())
	want := serial.Checksum()
	wantStates := serial.CityStates()

	const nodes = 2
	assign := shard.PartitionContiguous(spec.Cities, nodes, nil)
	recipe := spec.Marshal()
	clients := make([]*Client, nodes)
	dones := make([]chan error, nodes)
	parts := make([]shard.Part, nodes)
	ownedBy := make([][]int, nodes)
	var lookahead float64
	for p := 0; p < nodes; p++ {
		cl, done := startWorker(t, fmt.Sprintf("pipe-%d", p))
		var owned []int
		for ci, a := range assign {
			if a == p {
				owned = append(owned, ci)
			}
		}
		r, err := cl.Assign(Assign{Recipe: recipe, Shards: 2, Owned: owned})
		if err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			lookahead = float64(r.Lookahead)
		} else if float64(r.Lookahead) != lookahead {
			t.Fatalf("worker %d lookahead %v, worker 0 reported %v", p, r.Lookahead, lookahead)
		}
		clients[p], dones[p], parts[p], ownedBy[p] = cl, done, cl, owned
	}

	sy, err := shard.NewSync(serial.Backbone.MinDelay(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sy.Run(spec.Until()); err != nil {
		t.Fatal(err)
	}

	states := make([]city.CityState, spec.Cities)
	for p, cl := range clients {
		got, err := cl.States()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ownedBy[p]) {
			t.Fatalf("worker %d reported %d states for %d cities", p, len(got), len(ownedBy[p]))
		}
		for i, cs := range got {
			if cs.City != ownedBy[p][i] {
				t.Fatalf("worker %d state %d is city %d, want %d", p, i, cs.City, ownedBy[p][i])
			}
			states[cs.City] = cs
		}
	}
	if got := city.ChecksumStates(states); got != want {
		t.Errorf("remote checksum %#016x, want %#016x", got, want)
	}
	for ci := range states {
		if states[ci] != wantStates[ci] {
			t.Errorf("city %d state\n got %+v\nwant %+v", ci, states[ci], wantStates[ci])
		}
	}

	// Metrics and trace chunks answer (trace empty: tracing off).
	if m, err := clients[0].Metrics(); err != nil || len(m) == 0 {
		t.Errorf("Metrics = %d bytes, %v", len(m), err)
	}
	if tr, err := clients[0].Trace(); err != nil || len(tr) != 0 {
		t.Errorf("Trace = %d bytes, %v; want empty without tracing", len(tr), err)
	}

	for p, cl := range clients {
		if err := cl.Bye(); err != nil {
			t.Errorf("worker %d: Bye: %v", p, err)
		}
		if err := <-dones[p]; err != nil {
			t.Errorf("worker %d session: %v", p, err)
		}
	}
}

// TestSessionRejectsBadAssign: a session must answer a broken assignment
// with a readable error, not die silently or build a wrong partition.
func TestSessionRejectsBadAssign(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Assign
		want string
	}{
		{"garbage recipe", Assign{Recipe: []byte("not json"), Shards: 1, Owned: []int{0}}, "spec"},
		{"no owned", Assign{Recipe: testSpec().Marshal(), Shards: 1}, "no owned"},
		{"city out of range", Assign{Recipe: testSpec().Marshal(), Shards: 1, Owned: []int{99}}, "owns city"},
		{"unsorted owned", Assign{Recipe: testSpec().Marshal(), Shards: 1, Owned: []int{2, 1}}, "ascending"},
		{"zero shards", Assign{Recipe: testSpec().Marshal(), Shards: 0, Owned: []int{0}}, "shards"},
	} {
		cl, done := startWorker(t, tc.name)
		_, err := cl.Assign(tc.a)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Assign error = %v, want substring %q", tc.name, err, tc.want)
		}
		if err := <-done; err == nil {
			t.Errorf("%s: session exited nil after bad assign", tc.name)
		}
	}
}

// TestSessionRequiresAssignFirst: window-protocol requests before Assign
// are protocol errors.
func TestSessionRequiresAssignFirst(t *testing.T) {
	cl, done := startWorker(t, "premature")
	if _, _, err := cl.NextEvent(); err == nil || !strings.Contains(err.Error(), "before Assign") {
		t.Errorf("NextEvent error = %v, want 'before Assign'", err)
	}
	<-done
}

// TestSessionRejectsInvalidWindowInputs: a window end or delivery the
// worker's kernel cannot honour is answered with an error frame and ends
// the session, instead of crashing the worker or running on.
func TestSessionRejectsInvalidWindowInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*Client) error
		want string
	}{
		{"NaN window end", func(cl *Client) error {
			_, err := cl.RunWindow(math.NaN())
			return err
		}, "NaN"},
		{"sender out of range", func(cl *Client) error {
			return cl.Deliver([]shard.Msg{{At: 1, Src: 99, Dst: 0, Kind: city.MsgKindInterCityJob}})
		}, "from LP 99"},
		{"NaN arrival", func(cl *Client) error {
			return cl.Deliver([]shard.Msg{{At: math.NaN(), Src: 1, Dst: 0, Kind: city.MsgKindInterCityJob}})
		}, "NaN"},
	} {
		cl, done := startWorker(t, tc.name)
		if _, err := cl.Assign(Assign{Recipe: testSpec().Marshal(), Shards: 1, Owned: []int{0}}); err != nil {
			t.Fatal(err)
		}
		if err := tc.call(cl); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
		if err := <-done; err == nil {
			t.Errorf("%s: session exited nil", tc.name)
		}
	}
}

// TestClientBrokenStaysBroken: after one failed round trip every later
// call fails immediately — the stream state is unknowable.
func TestClientBrokenStaysBroken(t *testing.T) {
	cl, done := startWorker(t, "broken")
	if _, _, err := cl.NextEvent(); err == nil {
		t.Fatal("NextEvent before Assign succeeded")
	}
	<-done
	if _, err := cl.Assign(Assign{Recipe: testSpec().Marshal(), Shards: 1, Owned: []int{0}}); err == nil {
		t.Fatal("Assign on a broken client succeeded")
	}
	if err := cl.Deliver(nil); err == nil {
		t.Fatal("Deliver on a broken client succeeded")
	}
}

// TestCodecRoundTrips: every typed payload decodes back to itself.
func TestCodecRoundTrips(t *testing.T) {
	a := Assign{Recipe: []byte(`{"seed":1}`), Shards: 3, Owned: []int{2, 3, 4}}
	ga, err := DecodeAssign(EncodeAssign(a))
	if err != nil || ga.Shards != a.Shards || len(ga.Owned) != 3 || string(ga.Recipe) != string(a.Recipe) {
		t.Errorf("Assign round trip %+v, %v", ga, err)
	}
	r := Ready{Owned: []int{0, 1}, Lookahead: 30.012}
	gr, err := DecodeReady(EncodeReady(r))
	if err != nil || gr.Lookahead != r.Lookahead || len(gr.Owned) != 2 {
		t.Errorf("Ready round trip %+v, %v", gr, err)
	}
	n := Next{Has: true, T: 1234.5}
	gn, err := DecodeNext(EncodeNext(n))
	if err != nil || gn != n {
		t.Errorf("Next round trip %+v, %v", gn, err)
	}
	end, err := DecodeWindow(EncodeWindow(99.25))
	if err != nil || end != 99.25 {
		t.Errorf("Window round trip %v, %v", end, err)
	}
	msgs := []shard.Msg{
		{At: 5, Src: 1, Dst: 2, Seq: 7, Size: 1e6, Delay: 30.012, Kind: 1, Payload: []byte{1, 2, 3}},
		{At: 6, Src: 0, Dst: 4, Seq: 8, Kind: 2},
	}
	gm, err := DecodeMsgs(EncodeMsgs(msgs))
	if err != nil || len(gm) != 2 || gm[0].Seq != 7 || string(gm[0].Payload) != "\x01\x02\x03" || gm[1].Dst != 4 {
		t.Errorf("Msgs round trip %+v, %v", gm, err)
	}
	res := shard.WindowResult{Msgs: msgs[:1], PerShard: []uint64{10, 20}, Sent: 5, CrossShard: 2}
	gres, err := DecodeResult(EncodeResult(res))
	if err != nil || len(gres.Msgs) != 1 || len(gres.PerShard) != 2 || gres.PerShard[1] != 20 ||
		gres.Sent != 5 || gres.CrossShard != 2 {
		t.Errorf("Result round trip %+v, %v", gres, err)
	}
	states := []city.CityState{{City: 3, JobsDone: 9, WorkDone: 1.5, EventsFired: 77, SimTime: 42, Imported: 4}}
	gs, err := DecodeStates(EncodeStates(states))
	if err != nil || len(gs) != 1 || gs[0] != states[0] {
		t.Errorf("States round trip %+v, %v", gs, err)
	}
	msg, err := DecodeError(EncodeError("boom"))
	if err != nil || msg != "boom" {
		t.Errorf("Error round trip %q, %v", msg, err)
	}
	chunk, err := DecodeChunk(EncodeChunk([]byte("hello")))
	if err != nil || string(chunk) != "hello" {
		t.Errorf("Chunk round trip %q, %v", chunk, err)
	}
}

// TestPayloadTruncations: every typed decoder rejects every strict
// prefix of a valid payload and any trailing garbage.
func TestPayloadTruncations(t *testing.T) {
	payloads := map[string]struct {
		enc []byte
		dec func([]byte) error
	}{
		"Assign": {EncodeAssign(Assign{Recipe: []byte("r"), Shards: 2, Owned: []int{1, 2}}),
			func(b []byte) error { _, err := DecodeAssign(b); return err }},
		"Ready": {EncodeReady(Ready{Owned: []int{1}, Lookahead: 3}),
			func(b []byte) error { _, err := DecodeReady(b); return err }},
		"Next": {EncodeNext(Next{Has: true, T: 9}),
			func(b []byte) error { _, err := DecodeNext(b); return err }},
		"Window": {EncodeWindow(4),
			func(b []byte) error { _, err := DecodeWindow(b); return err }},
		"Msgs": {EncodeMsgs([]shard.Msg{{At: 1, Kind: 2, Payload: []byte{9}}}),
			func(b []byte) error { _, err := DecodeMsgs(b); return err }},
		"Result": {EncodeResult(shard.WindowResult{PerShard: []uint64{3}, Sent: 1}),
			func(b []byte) error { _, err := DecodeResult(b); return err }},
		"States": {EncodeStates([]city.CityState{{City: 1}}),
			func(b []byte) error { _, err := DecodeStates(b); return err }},
	}
	for name, p := range payloads { //df3:unordered-ok independent cases; t.Errorf order is cosmetic
		for cut := 0; cut < len(p.enc); cut++ {
			if err := p.dec(p.enc[:cut]); err == nil {
				t.Errorf("%s: accepted a %d-byte truncation of %d", name, cut, len(p.enc))
			}
		}
		if err := p.dec(append(append([]byte{}, p.enc...), 0xff)); err == nil {
			t.Errorf("%s: accepted trailing garbage", name)
		}
	}
	// A count field that promises more items than the payload holds must
	// be rejected before any allocation sized from it.
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeMsgs(huge); err == nil {
		t.Error("DecodeMsgs accepted a 2^31 message count")
	}
	if _, err := DecodeStates(huge); err == nil {
		t.Error("DecodeStates accepted a 2^31 state count")
	}
}
