// Command df3trace summarises traces written by df3sim. The default mode
// reads per-event records (df3sim -trace writes them as CSV, and df3trace
// reads them as CSV whatever the file is called) and reports per-kind
// counts, rates and value distributions. The spans mode reads causal spans
// (df3sim -spans) and reports the per-stage latency breakdown, the
// exclusive self-time decomposition and the critical path of the slowest
// request; -chrome additionally converts the spans to Chrome trace-event
// JSON for Perfetto.
//
//	df3sim -days 2 -trace run.csv
//	df3trace run.csv
//
//	df3sim -days 2 -spans run.jsonl
//	df3trace spans run.jsonl
//	df3trace spans -chrome run.json run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"df3/internal/report"
	"df3/internal/trace"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "spans" {
		spansMode(os.Args[2:])
		return
	}
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: df3trace <trace.csv>")
		fmt.Fprintln(os.Stderr, "       df3trace spans [-chrome out.json] [-paths n] <spans.jsonl>")
		os.Exit(2)
	}
	if err := eventsMode(os.Stdout, os.Args[1]); err != nil {
		fatal("%v", err)
	}
}

// eventsMode writes the per-event-kind summary of the CSV events at path.
func eventsMode(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadCSV(f)
	if err != nil {
		return err
	}

	t := report.NewTable(fmt.Sprintf("%s: %d events", path, len(events)),
		"kind", "count", "rate /s", "mean", "median", "p99", "max")
	for _, s := range trace.Summarize(events) {
		t.Row(s.Kind, s.Count, s.Rate(), s.Mean, s.Median, s.P99, s.Max)
	}
	return t.Write(w)
}

// spansMode reads a span JSONL file and prints the latency decomposition.
func spansMode(args []string) {
	fs := flag.NewFlagSet("df3trace spans", flag.ExitOnError)
	chromePath := fs.String("chrome", "", "also write the spans as Chrome trace-event JSON to this file")
	nPaths := fs.Int("paths", 1, "print the critical path of the n slowest root spans")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: df3trace spans [-chrome out.json] [-paths n] <spans.jsonl>")
		os.Exit(2)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	spans, err := trace.ReadSpansJSONL(f)
	if err != nil {
		fatal("%v", err)
	}
	if len(spans) == 0 {
		fatal("%s holds no spans", path)
	}

	stages := report.NewTable(
		fmt.Sprintf("%s: %d spans, per-stage latency (seconds)", path, len(spans)),
		"stage", "count", "total", "mean", "p50", "p99", "max")
	for _, s := range trace.SummarizeStages(spans) {
		stages.Row(s.Stage, s.Count, s.Total, s.Mean, s.P50, s.P99, s.Max)
	}
	if err := stages.Write(os.Stdout); err != nil {
		fatal("%v", err)
	}

	self := report.NewTable("exclusive self time by stage (seconds)", "stage", "self")
	for _, s := range trace.SelfTimes(spans) {
		self.Row(s.Stage, s.Self)
	}
	if err := self.Write(os.Stdout); err != nil {
		fatal("%v", err)
	}

	roots := trace.Roots(spans)
	for i, root := range roots {
		if i >= *nPaths {
			break
		}
		t := report.NewTable(
			fmt.Sprintf("critical path of root #%d (%s %q, %.6fs)",
				i+1, root.Stage, root.Detail, root.Duration()),
			"stage", "from", "to", "duration")
		for _, seg := range trace.CriticalPath(spans, root.ID) {
			t.Row(seg.Stage, seg.From, seg.To, seg.To-seg.From)
		}
		if err := t.Write(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}

	if *chromePath != "" {
		out, err := os.Create(*chromePath)
		if err != nil {
			fatal("chrome: %v", err)
		}
		err = trace.WriteChromeSpans(out, spans, nil)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("chrome: %v", err)
		}
		fmt.Printf("chrome trace written to %s — open in Perfetto (ui.perfetto.dev)\n", *chromePath)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "df3trace: "+format+"\n", args...)
	os.Exit(1)
}
