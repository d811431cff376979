package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"df3/internal/city"
	"df3/internal/shard"
	"df3/internal/sim"
)

// fakePart answers with fixed values so the probe's pass-through can be
// compared exactly.
type fakePart struct{ delivered [][]shard.Msg }

var errFake = errors.New("fake deliver failure")

func (f *fakePart) OwnedLPs() ([]int, error)           { return []int{4, 5}, nil }
func (f *fakePart) NextEvent() (sim.Time, bool, error) { return 12.5, true, nil }
func (f *fakePart) RunWindow(end sim.Time) (shard.WindowResult, error) {
	return shard.WindowResult{Msgs: []shard.Msg{{At: end, Src: 4, Dst: 1, Seq: 9}}, PerShard: []uint64{3}, Sent: 2}, nil
}
func (f *fakePart) Deliver(batch []shard.Msg) error {
	f.delivered = append(f.delivered, batch)
	return errFake
}

func TestPartProbePassesThrough(t *testing.T) {
	inner := &fakePart{}
	for _, tr := range []*tracer{nil, newTracer()} {
		p := &partProbe{Part: inner, tr: tr}
		ids, err := p.OwnedLPs()
		if err != nil || !reflect.DeepEqual(ids, []int{4, 5}) {
			t.Fatalf("OwnedLPs = %v, %v", ids, err)
		}
		at, has, err := p.NextEvent()
		if at != 12.5 || !has || err != nil {
			t.Fatalf("NextEvent = %v, %v, %v", at, has, err)
		}
		want, _ := inner.RunWindow(30)
		got, err := p.RunWindow(30)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("RunWindow = %+v, %v; want %+v", got, err, want)
		}
		batch := []shard.Msg{{At: 31, Src: 1, Dst: 4}}
		if err := p.Deliver(batch); !errors.Is(err, errFake) {
			t.Fatalf("Deliver error = %v, want the inner error", err)
		}
		if !reflect.DeepEqual(inner.delivered[len(inner.delivered)-1], batch) {
			t.Fatal("Deliver changed the batch")
		}
		if n := len(tr.finished()); tr != nil && n != 3 {
			t.Fatalf("recorded %d spans, want one per wire call", n)
		}
	}
}

func TestConnWrappersPassBytesThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var n atomic.Int64
	clk := &workerClock{}
	clk.from.Store(1) // measuring since the epoch
	client := countingConn{Conn: a, n: &n}
	worker := &workerConn{Conn: b, clk: clk}

	const req, reply = "request bytes", "a longer reply"
	go func() {
		buf := make([]byte, len(req))
		if _, err := io.ReadFull(worker, buf); err != nil || string(buf) != req {
			t.Errorf("worker read %q, %v", buf, err)
			return
		}
		if _, err := worker.Write([]byte(reply)); err != nil {
			t.Error(err)
		}
	}()
	if _, err := client.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(reply))
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != reply {
		t.Fatalf("client read %q, %v", buf, err)
	}
	if got := n.Load(); got != int64(len(req)+len(reply)) {
		t.Fatalf("counted %d bytes, want %d", got, len(req)+len(reply))
	}
	if clk.wait.Load() <= 0 || clk.busy.Load() < 0 {
		t.Fatalf("worker clock wait %d busy %d", clk.wait.Load(), clk.busy.Load())
	}
}

func TestHandlerProbePassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo-Path", r.URL.Path)
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte(strings.ToUpper(string(body))))
	})
	tr := newTracer()
	batch := tr.begin("batch", 0)
	probe := &handlerProbe{next: inner, tr: tr}
	serve := func(h http.Handler, path, tag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("line one\nline two\n"))
		if tag != "" {
			req.Header.Set(spanHeader, tag)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, path := range []string{"/v1/ingest", "/metrics"} {
		for _, tag := range []string{"", strconv.FormatInt(batch, 10), "99"} {
			want, got := serve(inner, path, tag), serve(probe, path, tag)
			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				!reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("%s tag %q: wrapped %d %q %v, bare %d %q %v", path, tag,
					got.Code, got.Body, got.Header(), want.Code, want.Body, want.Header())
			}
		}
	}
	tr.end(batch)
	spans := tr.finished()[1:]
	if len(spans) != 4 || spans[0].Name != spanHandler || spans[2].Name != spanScrape {
		t.Fatalf("spans = %+v, want one per tagged request, named by route", spans)
	}
	for i, s := range spans {
		if known := i%2 == 0; (s.Parent == batch) != known || (s.Op == batch) != known {
			t.Errorf("span %+v: a known tag joins the batch, an unknown one starts its own operation", s)
		}
	}
}

// TestTracedWireRunMatchesReference runs a small federation over the
// loopback wire path, traced and untraced, and requires both to
// reproduce the in-process reference: the wrappers only observe.
func TestTracedWireRunMatchesReference(t *testing.T) {
	spec := city.Spec{Seed: 3, Cities: 2, Buildings: 1, Rooms: 2, Days: 0.05, EdgeRate: 1, DCCRate: 6, InterCity: 2}
	owned := [][]int{{0}, {1}}
	want, err := referenceChecksum(spec, owned)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, tr := range []*tracer{nil, newTracer()} {
		s, err := dialFederation(ln, spec, owned, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runFederation(s, spec, tr)
		if err != nil {
			s.close()
			t.Fatal(err)
		}
		if err := s.bye(); err != nil {
			t.Fatal(err)
		}
		if r.checksum != want {
			t.Fatalf("traced=%v: checksum %#x, reference %#x", tr != nil, r.checksum, want)
		}
		if tr != nil {
			// Run ends with a catch-up window on each partition.
			if n := countPerOp(tr.finished(), spanRunWindow)[r.op]; n != len(owned)*(r.stats.Windows+1) {
				t.Errorf("probes saw %d windows over %d partitions, Sync ran %d (+1 catch-up)", n, len(owned), r.stats.Windows)
			}
			if r.bytes <= 0 || r.busy <= 0 || r.wait <= 0 {
				t.Errorf("bytes %d busy %v wait %v", r.bytes, r.busy, r.wait)
			}
		} else if r.bytes != 0 || len(s.clk) != 0 {
			t.Errorf("untraced session wrapped its connections: %d bytes counted, %d worker clocks", r.bytes, len(s.clk))
		}
	}
}
