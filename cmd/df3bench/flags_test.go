package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchConfigValidate(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	plain := out("plain.txt")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cfg     benchConfig
		wantErr string // "" = valid
	}{
		{"defaults", benchConfig{}, ""},
		{"unknown experiment", benchConfig{run: "E99"}, "unknown experiment"},
		{"list alone", benchConfig{list: true}, ""},
		{"list with run", benchConfig{list: true, run: "E2"}, "-list takes no other flags"},
		{"list with trace", benchConfig{list: true, tracePath: out("t.json")}, "-list takes no other flags"},
		{"trace with capable selection", benchConfig{run: "E18", tracePath: out("t.json")}, ""},
		{"trace over all experiments", benchConfig{tracePath: out("t2.json")}, ""},
		{"trace without capable selection", benchConfig{run: "E2", tracePath: out("t.json")}, "trace-capable"},
		{"trace into missing dir", benchConfig{run: "E18",
			tracePath: filepath.Join(dir, "nope", "t.json")}, "-trace"},
		{"cpuprofile into missing dir", benchConfig{
			cpuProfile: filepath.Join(dir, "nope", "cpu.prof")}, "-cpuprofile"},
		{"memprofile ok", benchConfig{memProfile: out("mem.prof")}, ""},
		{"csv creatable dir", benchConfig{csvDir: filepath.Join(dir, "csv")}, ""},
		{"csv path is a file", benchConfig{csvDir: plain}, "-csv"},
		{"shardprof", benchConfig{shardprof: true}, ""},
		{"shardprof quick", benchConfig{shardprof: true, quick: true}, ""},
		{"shardprof with run", benchConfig{shardprof: true, run: "E2"}, "do not apply"},
	}
	for _, c := range cases {
		err := c.cfg.validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: expected error containing %q, got nil", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestBenchSelection(t *testing.T) {
	all, err := benchConfig{}.selection()
	if err != nil || len(all) < 20 {
		t.Fatalf("all selection: %d experiments, err %v", len(all), err)
	}
	sel, err := benchConfig{run: "E19, E2"}.selection()
	if err != nil || len(sel) != 2 || sel[0].ID != "E19" || sel[1].ID != "E2" {
		t.Fatalf("subset selection broken: %v err %v", sel, err)
	}
}
