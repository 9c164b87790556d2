package main

import (
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hist is a log-linear latency histogram: values below 64 ns get exact
// buckets, larger ones 64 linear sub-buckets per power of two (under 2%
// relative width). Quantiles interpolate inside the bucket, so a reported
// percentile is not pinned to a bucket edge.
type hist struct {
	counts [59 << histSubBits]uint32
	n      uint64
}

const histSubBits = 6

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return (shift+1)<<histSubBits + int(uint64(v)>>shift) - 1<<histSubBits
}

// histBounds returns the lower bound and width of bucket b.
func histBounds(b int) (lo, width float64) {
	if b < 1<<histSubBits {
		return float64(b), 1
	}
	shift := b>>histSubBits - 1
	mant := b&(1<<histSubBits-1) + 1<<histSubBits
	return float64(uint64(mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, width := histBounds(b)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(len(h.counts) - 1)
	return lo + width
}

// sample is one window of a measured phase. The end-to-end wall-clock
// metrics are medians over windows, so a burst of interference from
// outside the process moves a few windows, not the result.
type sample struct {
	ops           int
	wall, cpu     time.Duration
	p50, p90, p99 float64 // latency quantiles of the ops (or batches) that finished in the window, in ns
}

// meter cuts an in-process measured phase into windows of a fixed number
// of ops.
type meter struct {
	p        *pass
	size     int
	lat      hist
	start    time.Time
	cpuStart time.Duration
}

func newMeter(p *pass, size int) *meter {
	m := &meter{p: p, size: size}
	m.start, m.cpuStart = time.Now(), cpuTime()
	return m
}

// op records one finished op and closes the window once it is full.
func (m *meter) op(d time.Duration) {
	m.lat.add(d)
	if int(m.lat.n) == m.size {
		now, cpu := time.Now(), cpuTime()
		m.p.addWindow(m.size, now.Sub(m.start), cpu-m.cpuStart, &m.lat)
		m.lat = hist{}
		m.start, m.cpuStart = now, cpu
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat returns the machine's stolen and total CPU time in clock ticks
// (the first line of /proc/stat), or zeros where it cannot be read. Time a
// hypervisor steals slows every wall-clock metric; the run reports it.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// liveHeapMiB collects garbage and returns the live heap in MiB: the
// memory the engine and the benchmark hold at this point.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second drops what the first moved to sync.Pool victim caches
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timed collects garbage and then times f, so that collection work left
// over from earlier rounds does not land in the measurement.
func timed[T any](f func() (T, error)) (T, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	v, err := f()
	return v, time.Since(t0), err
}
