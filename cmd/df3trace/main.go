// Command df3trace summarises a causal-span trace: the JSON lines that
// df3sim -spans writes and df3coord -trace gathers from its df3node
// workers. It reports the per-stage latency breakdown, the exclusive
// self-time decomposition and the critical path of the slowest requests;
// -chrome additionally converts the spans to Chrome trace-event JSON for
// Perfetto.
//
//	df3sim -days 2 -spans run.jsonl
//	df3trace run.jsonl
//	df3trace -chrome run.json -paths 3 run.jsonl
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
	chromePath := flag.String("chrome", "", "also write the spans as Chrome trace-event JSON to this file")
	nPaths := flag.Int("paths", 1, "print the critical path of the n slowest root spans")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: df3trace [-chrome out.json] [-paths n] <spans.jsonl>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := summarise(os.Stdout, flag.Arg(0), *nPaths, *chromePath); err != nil {
		fmt.Fprintf(os.Stderr, "df3trace: %v\n", err)
		os.Exit(1)
	}
}

// summarise reads the span JSONL file at path and writes its latency
// decomposition to w, plus a Chrome export when chromePath is set.
func summarise(w io.Writer, path string, nPaths int, chromePath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := trace.ReadSpansJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s holds no spans", path)
	}

	stages := report.NewTable(
		fmt.Sprintf("%s: %d spans, per-stage latency (seconds)", path, len(spans)),
		"stage", "count", "total", "mean", "p50", "p99", "max")
	for _, s := range trace.SummarizeStages(spans) {
		stages.Row(s.Stage, s.Count, s.Total, s.Mean, s.P50, s.P99, s.Max)
	}
	if err := stages.Write(w); err != nil {
		return err
	}

	self := report.NewTable("exclusive self time by stage (seconds)", "stage", "self")
	for _, s := range trace.SelfTimes(spans) {
		self.Row(s.Stage, s.Self)
	}
	if err := self.Write(w); err != nil {
		return err
	}

	roots := trace.Roots(spans)
	for i, root := range roots {
		if i >= nPaths {
			break
		}
		t := report.NewTable(
			fmt.Sprintf("critical path of root #%d (%s %q, %.6fs)",
				i+1, root.Stage, root.Detail, root.Duration()),
			"stage", "from", "to", "duration")
		for _, seg := range trace.CriticalPath(spans, root.ID) {
			t.Row(seg.Stage, seg.From, seg.To, seg.To-seg.From)
		}
		if err := t.Write(w); err != nil {
			return err
		}
	}

	if chromePath == "" {
		return nil
	}
	out, err := os.Create(chromePath)
	if err != nil {
		return fmt.Errorf("chrome: %w", err)
	}
	err = trace.WriteChromeSpans(out, spans, nil)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("chrome: %w", err)
	}
	_, err = fmt.Fprintf(w, "chrome trace written to %s — open in Perfetto (ui.perfetto.dev)\n", chromePath)
	return err
}
