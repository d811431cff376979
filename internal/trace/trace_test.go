package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"df3/internal/sim"
)

func sample() *Recorder {
	var r Recorder
	r.Add(1.5, "edge_latency", 1, 0.12)
	r.Add(2.0, "dcc_done", 2, 300)
	r.Record(Event{T: 3, Kind: "note", ID: 3, Value: 0, Detail: `with,comma "q"`})
	return &r
}

func TestCSVRoundTrip(t *testing.T) {
	r := sample()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != r.Len() {
		t.Fatalf("round trip lost events: %d vs %d", len(got), r.Len())
	}
	for i, e := range got {
		if e != r.Events()[i] {
			t.Errorf("event %d: %+v != %+v", i, e, r.Events()[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	bad := "t,kind,id,value,detail\nnot-a-number,x,1,2,\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad time accepted")
	}
}

func TestFilter(t *testing.T) {
	r := sample()
	if got := r.Filter("edge_latency"); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("filter returned %v", got)
	}
	if got := r.Filter("absent"); got != nil {
		t.Errorf("filter on absent kind returned %v", got)
	}
}

// Property: CSV round-trip is lossless for arbitrary printable payloads.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(ts []uint32, vals []int32) bool {
		var r Recorder
		n := len(ts)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			r.Add(sim.Time(ts[i]), "k", uint64(i), float64(vals[i]))
		}
		var b strings.Builder
		if err := r.WriteCSV(&b); err != nil {
			return false
		}
		got, err := ReadCSV(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		if len(got) != r.Len() {
			return false
		}
		for i := range got {
			if got[i] != r.Events()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	var r Recorder
	r.Add(0, "lat", 1, 10)
	r.Add(5, "lat", 2, 20)
	r.Add(10, "lat", 3, 30)
	r.Add(1, "drop", 4, 0)
	sums := Summarize(r.Events())
	if len(sums) != 2 {
		t.Fatalf("%d kinds", len(sums))
	}
	// Sorted: drop, lat.
	if sums[0].Kind != "drop" || sums[1].Kind != "lat" {
		t.Fatalf("order: %v %v", sums[0].Kind, sums[1].Kind)
	}
	lat := sums[1]
	if lat.Count != 3 || lat.Mean != 20 || lat.Median != 20 || lat.Max != 30 {
		t.Errorf("lat summary %+v", lat)
	}
	if lat.First != 0 || lat.Last != 10 {
		t.Errorf("span %v..%v", lat.First, lat.Last)
	}
	if lat.Rate() != 0.3 {
		t.Errorf("rate = %v", lat.Rate())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Errorf("summaries of empty trace: %v", got)
	}
}

func TestSummaryRateDegenerate(t *testing.T) {
	s := Summary{Count: 5, First: 3, Last: 3}
	if s.Rate() != 0 {
		t.Errorf("zero-span rate = %v", s.Rate())
	}
}
