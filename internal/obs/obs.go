// Package obs is the repo's zero-dependency observability layer:
// a process-wide metrics registry (counters, float accumulators,
// gauges, histograms, phase timers) plus structured JSON run manifests
// (manifest.go) and the -manifest/-pprof flags every command shares
// (runflags.go).
//
// The design contract, relied on by the tier-1 benchmarks:
//
//   - Recording is allocation-free on hot paths. Instrumented packages
//     resolve metric handles once (package init or constructor time,
//     under the registry mutex) and hot-path calls touch only the
//     handle's atomics.
//   - Recording is a no-op unless Enable has been called: every record
//     method first loads one package-level atomic.Bool and returns.
//     CLIs enable the layer when -manifest is set (blud always does);
//     library code never does, so `go test -bench` measures the
//     uninstrumented hot paths.
//   - Handles are safe for concurrent use from any number of
//     goroutines (the parallel experiment fan-out records from all
//     workers at once).
//
// Metric values are process-global aggregates — two cells simulated in
// one process add into the same counters. That is the intended
// granularity: the manifest snapshot describes the whole run.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every record method in the package.
var enabled atomic.Bool

// Enable turns metric recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns metric recording off again (tests).
func Disable() { enabled.Store(false) }

// Enabled reports whether recording is on. Instrumentation sites with
// non-trivial bookkeeping (building a batch of counts before a single
// Add) should gate the whole block on it.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n (callers pass non-negative deltas).
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter accumulates a float64 total (delivered bits, seconds of
// airtime) with a compare-and-swap loop over the value's bits.
type FloatCounter struct {
	name string
	bits atomic.Uint64
}

// Add folds x into the total.
func (f *FloatCounter) Add(x float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current total.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Gauge is a last-write-wins float64 metric.
type Gauge struct {
	name string
	bits atomic.Uint64
	set  atomic.Bool
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last set value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. bounds are the
// inclusive upper bounds of the first len(bounds) buckets; one overflow
// bucket catches everything above. NaN observations are dropped.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	n      atomic.Int64
	sum    FloatCounter
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() || math.IsNaN(v) {
		return
	}
	// sort.SearchFloat64s returns the first bound >= v's insertion
	// point; buckets are "<= bound", so search for the first bound >= v.
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Timer accumulates durations of a repeated phase or operation.
type Timer struct {
	name string
	n    atomic.Int64
	ns   atomic.Int64
}

// Record folds one duration into the timer.
func (t *Timer) Record(d time.Duration) {
	if !enabled.Load() {
		return
	}
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// Count returns the number of recorded durations.
func (t *Timer) Count() int64 { return t.n.Load() }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// registry is the process-wide metric store. Handles are registered
// under a mutex (cold path); recording never takes it.
var registry = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
}{
	counters: map[string]*Counter{},
	floats:   map[string]*FloatCounter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
	timers:   map[string]*Timer{},
}

// GetCounter returns the counter registered under name, creating it on
// first use. Call at init/constructor time and keep the handle.
func GetCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	c, ok := registry.counters[name]
	if !ok {
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// GetFloatCounter returns the float accumulator registered under name.
func GetFloatCounter(name string) *FloatCounter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	f, ok := registry.floats[name]
	if !ok {
		f = &FloatCounter{name: name}
		registry.floats[name] = f
	}
	return f
}

// GetGauge returns the gauge registered under name.
func GetGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	g, ok := registry.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		registry.gauges[name] = g
	}
	return g
}

// GetHistogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (sorted ascending) on first use;
// later calls ignore bounds and return the existing histogram.
func GetHistogram(name string, bounds []float64) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	h, ok := registry.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{name: name, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		registry.hists[name] = h
	}
	return h
}

// GetTimer returns the timer registered under name.
func GetTimer(name string) *Timer {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	t, ok := registry.timers[name]
	if !ok {
		t = &Timer{name: name}
		registry.timers[name] = t
	}
	return t
}

// Reset zeroes every registered metric (registrations are kept, so
// existing handles stay valid). Tests use it to read absolute values
// instead of deltas.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, f := range registry.floats {
		f.bits.Store(0)
	}
	for _, g := range registry.gauges {
		g.bits.Store(0)
		g.set.Store(false)
	}
	for _, h := range registry.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.n.Store(0)
		h.sum.bits.Store(0)
	}
	for _, t := range registry.timers {
		t.n.Store(0)
		t.ns.Store(0)
	}
}

// Bucket is one finite histogram bucket in a snapshot; samples above
// the last bound land in HistogramSnapshot.Overflow.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

// TimerSnapshot is a timer's state at snapshot time.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
}

// Snapshot is a point-in-time copy of every registered metric, shaped
// for JSON (the manifest's "metrics" object).
type Snapshot struct {
	Counters      map[string]int64             `json:"counters,omitempty"`
	FloatCounters map[string]float64           `json:"float_counters,omitempty"`
	Gauges        map[string]float64           `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers        map[string]TimerSnapshot     `json:"timers,omitempty"`
}

// Snap copies every registered metric. Only metrics that recorded
// something (or gauges that were set) are included, keeping manifests
// small and the zero-activity case obvious.
func Snap() Snapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := Snapshot{}
	for name, c := range registry.counters {
		if v := c.Value(); v != 0 {
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = v
		}
	}
	for name, f := range registry.floats {
		if v := f.Value(); v != 0 {
			if s.FloatCounters == nil {
				s.FloatCounters = map[string]float64{}
			}
			s.FloatCounters[name] = v
		}
	}
	for name, g := range registry.gauges {
		if g.set.Load() {
			if s.Gauges == nil {
				s.Gauges = map[string]float64{}
			}
			s.Gauges[name] = g.Value()
		}
	}
	for name, h := range registry.hists {
		if h.Count() == 0 {
			continue
		}
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.sum.Value()}
		for i, b := range h.bounds {
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: b, Count: h.counts[i].Load()})
		}
		hs.Overflow = h.counts[len(h.bounds)].Load()
		s.Histograms[name] = hs
	}
	for name, t := range registry.timers {
		if t.Count() == 0 {
			continue
		}
		if s.Timers == nil {
			s.Timers = map[string]TimerSnapshot{}
		}
		total := float64(t.Total()) / float64(time.Millisecond)
		s.Timers[name] = TimerSnapshot{
			Count:   t.Count(),
			TotalMS: total,
			AvgMS:   total / float64(t.Count()),
		}
	}
	return s
}
