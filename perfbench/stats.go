package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail is reported at. The tail
// of a sample is the highest rung with at least minBeyond operations
// strictly slower than it, so a reported p99 always rests on real
// observations rather than on one or two outliers.
var tailLadder = []float64{90, 99, 99.9, 99.99, 99.999}

const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples. The epsilon keeps float error in p/100·n (99.9/100·10000 =
// 9990.000000000002) from bumping an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n operations beyond it; ok is false when even the lowest
// rung has fewer (the tail is then omitted).
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// median is the middle sample, or the mean of the two middle samples
// (0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail applies the tail rule to xs: the value at the highest qualifying
// percentile, that percentile, and whether one qualified.
func tail(xs []float64) (v, p float64, ok bool) {
	p, ok = tailPercentile(len(xs))
	if !ok {
		return 0, 0, false
	}
	return percentile(xs, p), p, true
}

// tailNote states which percentile a tail was taken at, or why it was
// omitted.
func tailNote(name string, v, p float64, ok bool, n int, what string) string {
	if !ok {
		return fmt.Sprintf("%s: omitted, %d %s leave fewer than %d beyond p%g", name, n, what, minBeyond, tailLadder[0])
	}
	return fmt.Sprintf("%s: p%g = %.4f ms over %d %s", name, p, v, n, what)
}

// usage is a process resource snapshot.
type usage struct {
	cpu    time.Duration // user + system CPU
	maxRSS int64         // peak resident set, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// in converts durations to floats counted in unit.
func in(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// hostTicks is the machine-wide CPU time from the first line of
// /proc/stat, in clock ticks: all of it (user through steal) and the
// part a hypervisor gave to other guests while this one wanted to run.
type hostTicks struct{ total, steal uint64 }

// readHostTicks reads /proc/stat; ok is false where it is missing or has
// no steal column.
func readHostTicks() (hostTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseHostTicks(line)
}

// parseHostTicks reads the aggregate "cpu" line of /proc/stat.
func parseHostTicks(line string) (h hostTicks, ok bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, false
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostTicks{}, false
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, true
}

// stealNote states the share of CPU time stolen by the hypervisor
// between two readings. Wall-clock metrics rise with it, so a run taken
// under heavy steal can be told apart from a slower program.
func stealNote(a, b hostTicks) string {
	d := b.total - a.total
	if d == 0 {
		return "host: no CPU time elapsed in /proc/stat"
	}
	return fmt.Sprintf("host: hypervisor steal %.2f%% of this machine's CPU time during the run (/proc/stat)",
		100*float64(b.steal-a.steal)/float64(d))
}
