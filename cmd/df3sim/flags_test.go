package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// base is a valid single-city configuration; cases mutate one knob each.
func base() simConfig {
	return simConfig{
		buildings: 6, rooms: 8, days: 7, edgeRate: 1, dccRate: 1.5,
		climate: "paris", start: "nov", arch: "shared", policy: "smart",
	}
}

func TestSimConfigValidate(t *testing.T) {
	dir := t.TempDir()

	cases := []struct {
		name    string
		mutate  func(*simConfig)
		wantErr string // "" = valid
	}{
		{"defaults", func(c *simConfig) {}, ""},
		{"zero buildings", func(c *simConfig) { c.buildings = 0 }, "at least 1 building"},
		{"too many boilers", func(c *simConfig) { c.boilers = 7 }, "out of range"},
		{"zero days", func(c *simConfig) { c.days = 0 }, "positive horizon"},
		{"negative edge rate", func(c *simConfig) { c.edgeRate = -1 }, "non-negative"},
		{"bad climate", func(c *simConfig) { c.climate = "mars" }, "unknown climate"},
		{"bad start", func(c *simConfig) { c.start = "aug" }, "unknown start"},
		{"bad arch", func(c *simConfig) { c.arch = "hybrid" }, "unknown arch"},
		{"bad policy", func(c *simConfig) { c.policy = "yolo" }, "unknown offload policy"},
		{"spans into missing dir", func(c *simConfig) {
			c.spansPath = filepath.Join(dir, "nope", "s.jsonl")
		}, "-spans"},
		{"csv ok", func(c *simConfig) { c.csvPath = filepath.Join(dir, "cap.csv") }, ""},
	}
	for _, c := range cases {
		cfg := base()
		c.mutate(&cfg)
		err := cfg.validate()
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
