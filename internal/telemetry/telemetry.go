// Package telemetry reproduces FIRM's monitoring plane (§3.1, Table 2):
// per-container resource-utilization counters (the cAdvisor/Prometheus
// metrics) and workload meters (request arrival rate and composition) that
// feed the RL agent's state vector. Node-level hardware counters (the perf
// offcore DRAM-access proxies) are read from cluster.Node directly.
package telemetry

import (
	"sort"

	"firm/internal/cluster"
	"firm/internal/ring"
	"firm/internal/sim"
)

// Sample is one per-container observation, 104 bytes: it keeps the two
// vectors utilization is derived from, not the ratio itself.
type Sample struct {
	At       sim.Time
	Usage    cluster.Vector // absolute demand rates
	Limits   cluster.Vector // current RLT
	QueueLen int
	Busy     int
}

// Util returns Usage/Limits per resource (RU of Table 3), bit-identical to
// the container's Utilization at sampling time.
func (s Sample) Util() cluster.Vector { return s.Usage.Div(s.Limits) }

// Collector samples container telemetry on a fixed interval.
type Collector struct {
	eng    *sim.Engine
	cl     *cluster.Cluster
	capPer int

	// containers is indexed by cluster.Container.ID; a ring is built the
	// first time its container is sampled.
	containers []*ring.Ring[Sample]
	ticker     *sim.Ticker
}

// NewCollector creates a collector sampling every interval, retaining up to
// keep samples per container. Latest reads only the newest, so keep 1
// serves it; Window sees everything kept.
func NewCollector(eng *sim.Engine, cl *cluster.Cluster, interval sim.Time, keep int) *Collector {
	if interval <= 0 {
		panic("telemetry: non-positive interval")
	}
	if keep <= 0 {
		panic("telemetry: non-positive retention")
	}
	c := &Collector{eng: eng, cl: cl, capPer: keep}
	c.ticker = sim.NewTicker(eng, interval, c.sample)
	return c
}

// Start begins sampling.
func (c *Collector) Start() { c.ticker.Start() }

// Stop halts sampling.
func (c *Collector) Stop() { c.ticker.Stop() }

// Keep returns how many samples each container series retains.
func (c *Collector) Keep() int { return c.capPer }

// SampleNow takes one sampling pass at the current simulated time, outside
// the ticker schedule. It exists for the telemetry microbenchmarks
// (internal/perf); simulations sample through Start.
func (c *Collector) SampleNow() { c.sample() }

func (c *Collector) sample() {
	now := c.eng.Now()
	for _, rs := range c.cl.ReplicaSets() {
		for _, ct := range rs.Containers() {
			*c.series(ct.ID).Push() = Sample{
				At:       now,
				Usage:    ct.Usage(),
				Limits:   ct.Limits(),
				QueueLen: ct.QueueLen(),
				Busy:     ct.Busy(),
			}
		}
	}
}

// Reset forgets every sample, keeping the series' storage, and stops the
// collector: it is then what NewCollector built, on an engine and cluster
// that must have been reset too.
func (c *Collector) Reset() {
	c.ticker.Stop()
	for _, r := range c.containers {
		if r != nil {
			r.Reset()
		}
	}
}

// sampled returns the ring of the container with the given ID, or nil if it
// has no sample: none since New or Reset.
//
//firmvet:noalloc
func (c *Collector) sampled(id uint32) *ring.Ring[Sample] {
	if int(id) < len(c.containers) && c.containers[id] != nil && c.containers[id].Len() > 0 {
		return c.containers[id]
	}
	return nil
}

// series returns the container's ring, building it on the container's first
// sample.
func (c *Collector) series(id uint32) *ring.Ring[Sample] {
	for int(id) >= len(c.containers) {
		c.containers = append(c.containers, nil)
	}
	if c.containers[id] == nil {
		// Room for the first eight samples; the ring grows up to keep.
		r := ring.New[Sample](c.capPer, 8)
		c.containers[id] = &r
	}
	return c.containers[id]
}

// Latest returns the most recent sample for a container instance.
//
//firmvet:noalloc
func (c *Collector) Latest(instance uint32) (Sample, bool) {
	s := c.sampled(instance)
	if s == nil {
		return Sample{}, false
	}
	return *s.At(s.Len() - 1), true
}

// Window returns a copy of the samples for instance with At >= since,
// found by binary search over the time-ordered series.
func (c *Collector) Window(instance uint32, since sim.Time) []Sample {
	s := c.sampled(instance)
	if s == nil {
		return nil
	}
	n := s.Len()
	idx := sort.Search(n, func(i int) bool { return s.At(i).At >= since })
	out := make([]Sample, 0, n-idx)
	for i := idx; i < n; i++ {
		out = append(out, *s.At(i))
	}
	return out
}

// Meter tracks request arrivals: rate (req/s) and composition per type.
// It supplies the WC (workload change) and RC (request composition) state
// features of Table 3.
type Meter struct {
	eng      *sim.Engine
	window   sim.Time
	arrivals ring.Ring[arrival] // in time order
	types    []string
	index    map[string]int
}

type arrival struct {
	at  sim.Time
	typ int
}

// NewMeter creates a meter with the given sliding-window length. types fixes
// the request-type universe so composition encoding is stable.
func NewMeter(eng *sim.Engine, window sim.Time, types []string) *Meter {
	if window <= 0 {
		panic("telemetry: non-positive meter window")
	}
	m := &Meter{eng: eng, window: window, types: append([]string(nil), types...),
		index: make(map[string]int)}
	for i, t := range m.types {
		m.index[t] = i
	}
	return m
}

// Reset forgets every arrival, keeping the storage: the meter is then what
// NewMeter builds on its (reset) engine.
func (m *Meter) Reset() { m.arrivals.Reset() }

// Record notes one arrival of the given request type.
func (m *Meter) Record(reqType string) {
	idx, ok := m.index[reqType]
	if !ok {
		idx = -1
	}
	*m.arrivals.Push() = arrival{at: m.eng.Now(), typ: idx}
	m.gc()
}

// gc expires arrivals older than two windows.
func (m *Meter) gc() {
	cutoff := m.eng.Now() - 2*m.window
	for m.arrivals.Len() > 0 && m.arrivals.At(0).at < cutoff {
		m.arrivals.Pop()
	}
}

// Rate returns arrivals per second over the most recent window.
func (m *Meter) Rate() float64 {
	m.gc()
	now := m.eng.Now()
	cutoff := now - m.window
	n := 0
	for i := 0; i < m.arrivals.Len(); i++ {
		if m.arrivals.At(i).at >= cutoff {
			n++
		}
	}
	return float64(n) / m.window.Seconds()
}

// PrevRate returns arrivals per second for the window before the current
// one, enabling the WC = rate_t/rate_{t-1} feature.
func (m *Meter) PrevRate() float64 {
	m.gc()
	now := m.eng.Now()
	lo, hi := now-2*m.window, now-m.window
	n := 0
	for i := 0; i < m.arrivals.Len(); i++ {
		if a := m.arrivals.At(i); a.at >= lo && a.at < hi {
			n++
		}
	}
	return float64(n) / m.window.Seconds()
}

// WorkloadChange returns rate_t / rate_{t-1}, 1 when the previous window is
// empty (no signal).
func (m *Meter) WorkloadChange() float64 {
	prev := m.PrevRate()
	if prev == 0 {
		return 1
	}
	return m.Rate() / prev
}

// Composition returns the request-type shares over the current window,
// indexed like the types slice passed to NewMeter.
func (m *Meter) Composition() []float64 {
	m.gc()
	now := m.eng.Now()
	cutoff := now - m.window
	counts := make([]float64, len(m.types))
	total := 0.0
	for i := 0; i < m.arrivals.Len(); i++ {
		if a := m.arrivals.At(i); a.at >= cutoff && a.typ >= 0 {
			counts[a.typ]++
			total++
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}

// CompositionCode encodes the composition as a single value in [0,1] — the
// reproduction of the paper's numpy.ravel_multi_index trick: each share is
// quantized to q levels and the digit vector is flattened into a mixed-radix
// index, then normalized.
func (m *Meter) CompositionCode(q int) float64 {
	if q < 2 {
		q = 2
	}
	shares := m.Composition()
	idx, radix := 0.0, 1.0
	for _, s := range shares {
		level := int(s * float64(q-1) * 0.999999)
		idx += float64(level) * radix
		radix *= float64(q)
	}
	maxIdx := radix - 1
	if maxIdx <= 0 {
		return 0
	}
	return idx / maxIdx
}
