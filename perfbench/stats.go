package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"numastream/internal/metrics"
)

// epoch is the origin of every timestamp the benchmark stores as an
// integer (monotonic nanoseconds since process start).
var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

// blockQuantiles keeps the p50 and p99 of each consecutive block of
// blockSize samples. Reporting the median over blocks makes a timing
// steady: a stall of the host or a burst of garbage collection moves
// the few blocks it falls in, not the result. Safe for concurrent use.
type blockQuantiles struct {
	mu       sync.Mutex
	cur      []int64
	p50, p99 []float64
}

// blockSize leaves ten samples beyond each block's p99.
const blockSize = 1000

func (b *blockQuantiles) add(v int64) {
	b.mu.Lock()
	b.cur = append(b.cur, v)
	if len(b.cur) < blockSize {
		b.mu.Unlock()
		return
	}
	full := b.cur
	b.cur = make([]int64, 0, blockSize)
	b.mu.Unlock()
	p50, p99 := quantiles(full)
	b.mu.Lock()
	b.p50, b.p99 = append(b.p50, p50), append(b.p99, p99)
	b.mu.Unlock()
}

func quantiles(v []int64) (p50, p99 float64) {
	slices.Sort(v)
	return float64(v[len(v)/2]), float64(v[len(v)*99/100])
}

// medians returns the median over full blocks of their p50 and p99 —
// of the partial block when none filled — and how many samples were
// added; zeros when there were none.
func (b *blockQuantiles) medians() (p50, p99 float64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n = len(b.p50)*blockSize + len(b.cur)
	if len(b.p50) == 0 {
		if len(b.cur) == 0 {
			return 0, 0, 0
		}
		p50, p99 = quantiles(append([]int64(nil), b.cur...))
		return p50, p99, n
	}
	return median(b.p50), median(b.p99), n
}

// stampRing holds the latency origin of each in-flight chunk of one
// stream, indexed by sequence number modulo its size. A tag written
// after the value, and re-read after it, tells a reader whether the
// slot still belongs to the sequence number it asks for.
type stampRing struct {
	tag [ringSize]atomic.Uint64 // seq+1, 0 while being written
	at  [ringSize]atomic.Int64
}

// ringSize bounds the chunks one stream may have in flight between the
// Source and the Sink; loopback queues and socket buffers hold far fewer.
const ringSize = 1 << 16

func (r *stampRing) put(seq uint64, ns int64) {
	i := seq & (ringSize - 1)
	r.tag[i].Store(0)
	r.at[i].Store(ns)
	r.tag[i].Store(seq + 1)
}

func (r *stampRing) get(seq uint64) (int64, bool) {
	i := seq & (ringSize - 1)
	if r.tag[i].Load() != seq+1 {
		return 0, false
	}
	ns := r.at[i].Load()
	return ns, r.tag[i].Load() == seq+1
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// regSnap is a point-in-time copy of the histograms and gauges of one
// or more pipeline registries, summed by name, so a measurement window
// can be taken as the difference of two snapshots.
type regSnap struct {
	hists  map[string]*histCounts
	gauges map[string]float64
}

// histCounts is a metrics.Histogram snapshot as per-bucket counts.
type histCounts struct {
	sum    int64
	counts [metrics.NumHistogramBuckets]int64
}

func snapshot(regs ...*metrics.Registry) regSnap {
	s := regSnap{hists: map[string]*histCounts{}, gauges: map[string]float64{}}
	for _, r := range regs {
		for _, h := range r.HistogramSnapshots() {
			hc := s.hists[h.Name]
			if hc == nil {
				hc = &histCounts{}
				s.hists[h.Name] = hc
			}
			hc.sum += h.Sum
			prev := int64(0)
			for _, b := range h.Buckets { // cumulative, populated only
				i := 0
				if b.Le > 0 {
					i = bits.Len64(uint64(b.Le))
				}
				hc.counts[i] += b.Count - prev
				prev = b.Count
			}
		}
		for _, g := range r.GaugeSnapshots() {
			s.gauges[g.Name] += g.Value
		}
	}
	return s
}

// histSumDelta returns how much the named histogram's sum grew.
func histSumDelta(a, b regSnap, name string) int64 {
	var before, after int64
	if h := a.hists[name]; h != nil {
		before = h.sum
	}
	if h := b.hists[name]; h != nil {
		after = h.sum
	}
	return after - before
}

// histQuantileDelta returns the q-quantile of the observations the named
// histogram received between a and b, interpolated inside log2 buckets
// as metrics.Histogram does; 0 when there were none.
func histQuantileDelta(a, b regSnap, name string, q float64) float64 {
	hb := b.hists[name]
	if hb == nil {
		return 0
	}
	var d [metrics.NumHistogramBuckets]int64
	total := int64(0)
	for i := range d {
		d[i] = hb.counts[i]
		if ha := a.hists[name]; ha != nil {
			d[i] -= ha.counts[i]
		}
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, n := range d {
		if n == 0 || cum+float64(n) < rank {
			cum += float64(n)
			continue
		}
		lo, hi := 0.0, 0.0
		if i > 0 {
			lo, hi = math.Exp2(float64(i-1)), float64(metrics.BucketUpper(i))
		}
		return lo + (rank-cum)/float64(n)*(hi-lo)
	}
	return 0
}
