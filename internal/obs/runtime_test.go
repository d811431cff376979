package obs

import (
	"bytes"
	"strings"
	"testing"

	df3metrics "df3/internal/metrics"
)

func TestRegisterRuntimeExports(t *testing.T) {
	reg := df3metrics.NewRegistry()
	RegisterRuntime(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"df3_go_goroutines",
		"df3_go_heap_objects_bytes",
		"df3_go_memory_total_bytes",
		"df3_go_gc_cycles_total",
		`df3_go_gc_pause_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
	// A live process always has goroutines.
	parsed, err := df3metrics.ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["df3_go_goroutines"] < 1 {
		t.Errorf("df3_go_goroutines = %v, want >= 1", parsed["df3_go_goroutines"])
	}
}
