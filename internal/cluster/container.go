package cluster

import (
	"math"

	"firm/internal/ring"
	"firm/internal/sim"
)

// Work is a unit of local computation submitted to a container: the base
// (uncontended) service time and the resource-demand rates held while the
// work occupies a worker. Handler, which may be nil, learns the outcome.
type Work struct {
	Base    sim.Time
	Demand  Vector
	Handler WorkHandler
}

// WorkHandler observes one Work item's outcome; exactly one of its methods
// is called, once. WorkDone receives the time spent queued and the realized
// processing time. WorkDropped fires instead if the work is shed — the
// container is not ready, its queue is full, or it is retired with the work
// still queued (counted in Fig. 10(c)). The request path submits its call
// frame as the handler, so a work item costs no closure.
type WorkHandler interface {
	WorkDone(queued, processing sim.Time)
	WorkDropped()
}

// WorkFuncs adapts plain callbacks to WorkHandler, for tests and other cold
// callers; either field may be nil.
type WorkFuncs struct {
	Done func(queued, processing sim.Time)
	Drop func()
}

// WorkDone implements WorkHandler.
func (f WorkFuncs) WorkDone(queued, processing sim.Time) {
	if f.Done != nil {
		f.Done(queued, processing)
	}
}

// WorkDropped implements WorkHandler.
func (f WorkFuncs) WorkDropped() {
	if f.Drop != nil {
		f.Drop()
	}
}

type queuedWork struct {
	w        Work
	enqueued sim.Time
}

// running is one in-flight work item: what its completion must give back to
// the container and node, and the completion event itself (it is the
// sim.Action scheduled at admission). Records cycle through the owning
// container's freelist.
type running struct {
	c          *Container
	w          Work
	queued     sim.Time
	dur        sim.Time
	cpuCharge  float64
	nodeDemand Vector
}

// Container is a deployed microservice instance: a FIFO request queue in
// front of a worker pool whose concurrency tracks the container's CPU limit.
// Requests processed by a worker are slowed down by the most-contended
// resource, either at container scope (limit pressure, targeted anomaly) or
// node scope (shared-resource interference) — the mechanism behind the
// paper's Fig. 1 latency spikes.
type Container struct {
	Name    string // "<service>-<ID>", for output
	Service string

	eng  *sim.Engine
	cfg  Config
	node *Node
	// Under Config.PerInstanceNoise the container draws service-time noise
	// from its own stream instead of the engine's: eight bytes of generator
	// state held here, drawn through the cluster's one Sampler, so the many
	// replicas a large deployment never routes work to cost nothing and the
	// ones it does cost no allocation.
	hasNoise bool
	noise    sim.SplitMix64
	sampler  *sim.Sampler

	limits  Vector
	ready   bool
	retired bool // removed from its replica set; never comes back
	// ID is the instance's dense identity — the cluster's container ordinal,
	// starting at 1 and never reused before a Reset — and what spans, telemetry series and
	// localizer state are keyed by. (It sits here, in what was padding, so
	// the fields the request path touches keep their offsets.)
	ID uint32

	queue ring.Ring[queuedWork] // waiting work; Submit enforces QueueCap
	// free recycles in-flight records; a container at steady state admits
	// and completes work without allocating.
	free    []*running
	busy    int
	busyCPU float64 // usage accounted to node/container for in-flight work

	inject         Vector   // targeted anomaly load (e.g. CPU stressor in the pod)
	nodeInjContrib Vector   // the portion of inject charged to the node
	netDelay       sim.Time // injected network delay on this instance's RPCs

	// Cumulative counters (reset-free; samplers diff them).
	Completed uint64
	Dropped   uint64
	busySince sim.Time
	busyInt   float64 // integral of busy workers over time (µs·workers)
	curDemand Vector  // sum of demand vectors of in-flight work
	// cpuActive tracks effective CPU consumption of in-flight work: a
	// request stalled on memory/LLC/IO/network occupies a worker without
	// burning proportionally more cycles, so its CPU charge is scaled by
	// cpuSlowdown/totalSlowdown. This is what makes the Kubernetes
	// autoscaler blind to non-CPU contention (Fig. 1: CPU utilization is
	// flat through a memory-bandwidth latency spike).
	cpuActive float64
}

// Limits returns the container's current resource limits (the RLT vector of
// §3.4's problem formulation).
func (c *Container) Limits() Vector { return c.limits }

// Node returns the hosting node.
func (c *Container) Node() *Node { return c.node }

// Ready reports whether the container has finished starting.
func (c *Container) Ready() bool { return c.ready }

// QueueLen returns the number of queued (not yet executing) work items.
func (c *Container) QueueLen() int { return c.queue.Len() }

// Busy returns the number of in-flight work items.
func (c *Container) Busy() int { return c.busy }

// NetDelay returns the injected per-RPC network delay for this instance.
func (c *Container) NetDelay() sim.Time { return c.netDelay }

// SetNetDelay sets the injected per-RPC network delay (tc-style anomaly).
func (c *Container) SetNetDelay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	c.netDelay = d
}

// InjectedLoad returns the targeted anomaly load on this container.
func (c *Container) InjectedLoad() Vector { return c.inject }

// SetInjectedLoad sets targeted anomaly load. The non-CPU components also
// reach the node (a stressor inside the pod consumes node-shared bandwidth),
// but the node-side contribution is capped by the container's partition
// limits: Intel MBA/CAT and tc throttle the stressor exactly like the
// victim's own traffic.
func (c *Container) SetInjectedLoad(v Vector) {
	v = v.ClampNonNeg()
	contrib := v.Min(c.limits)
	contrib[CPU] = 0 // CPU contention is container-scoped via the limit
	c.node.AddInjectedLoad(contrib.Sub(c.nodeInjContrib))
	c.nodeInjContrib = contrib
	c.inject = v
}

// workers returns the worker-pool size implied by the CPU limit.
func (c *Container) workers() int {
	w := int(math.Floor(c.limits[CPU] + 1e-9))
	if w < 1 {
		w = 1
	}
	return w
}

// SetLimits changes the container's resource limits in place (a scale-up or
// scale-down partitioning action, §3.5). Limits are clamped to node capacity
// and to the configured floor. Newly freed workers dispatch immediately.
func (c *Container) SetLimits(v Vector) {
	v = v.Min(c.node.Prof.Capacity)
	for r := range v {
		if v[r] < c.cfg.MinLimit[r] {
			v[r] = c.cfg.MinLimit[r]
		}
	}
	c.node.adjustCPUAlloc(v[CPU] - c.limits[CPU])
	c.limits = v
	c.dispatch()
}

// Usage returns the container's instantaneous demand per resource: in-flight
// request demand plus targeted anomaly load. CPU usage counts effective
// cycles: workers stalled on other resources contribute proportionally less.
func (c *Container) Usage() Vector {
	u := c.curDemand.Add(c.inject)
	u[CPU] = c.cpuActive + c.inject[CPU]
	return u.ClampNonNeg()
}

// cpuPerWorker spreads a fractional CPU limit across the (integer) pool.
func (c *Container) cpuPerWorker() float64 {
	w := float64(c.workers())
	if c.limits[CPU] < w {
		return c.limits[CPU] / w
	}
	return 1
}

// Utilization returns Usage/Limits per resource, the RU vector of the RL
// state (Table 3).
func (c *Container) Utilization() Vector { return c.Usage().Div(c.limits) }

// Submit enqueues work on the container. Work on a non-ready container or a
// full queue is dropped.
//
//firmvet:noalloc
func (c *Container) Submit(w Work) {
	if !c.ready || c.QueueLen() >= c.cfg.QueueCap {
		c.drop(w)
		return
	}
	*c.queue.Push() = queuedWork{w: w, enqueued: c.eng.Now()}
	c.dispatch()
}

//firmvet:noalloc
func (c *Container) dispatch() {
	for c.busy < c.workers() && c.queue.Len() > 0 {
		s := c.queue.Pop()
		qw := *s
		*s = queuedWork{} // drop the handler reference
		c.start(qw)
	}
}

// drop sheds one work item.
func (c *Container) drop(w Work) {
	c.Dropped++
	if w.Handler != nil {
		w.Handler.WorkDropped()
	}
}

// dropQueued sheds every waiting work item (the container is being retired).
func (c *Container) dropQueued() {
	q := c.queue
	c.queue = ring.Ring[queuedWork]{}
	for q.Len() > 0 {
		c.drop(q.Pop().w)
	}
}

// factors computes the service-time inflation at admission: total is the
// maximum oversubscription across (a) this container's limits and (b) the
// node's shared resources, floored at 1; cpuOnly isolates the CPU-driven
// part, used to charge effective CPU cycles to stalled workers. An extra
// sub-linear CPU-queue term is unnecessary because queueing delay emerges
// from the worker pool itself.
func (c *Container) factors(extra Vector) (total, cpuOnly float64) {
	total, cpuOnly = 1.0, 1.0
	use := c.Usage().Add(extra)
	for r := Resource(0); r < NumResources; r++ {
		if lim := c.limits[r]; lim > 0 {
			x := use[r] / lim
			if x > total {
				total = x
			}
			if r == CPU && x > cpuOnly {
				cpuOnly = x
			}
		}
	}
	if nf := c.node.contentionFactor(); nf > total {
		total = nf
	}
	return math.Pow(total, c.cfg.SlowdownExp), math.Pow(cpuOnly, c.cfg.SlowdownExp)
}

//firmvet:noalloc
func (c *Container) start(qw queuedWork) {
	now := c.eng.Now()
	// Admission factors include this request's own demand (with a full
	// provisional CPU charge for its worker).
	extra := qw.w.Demand
	extra[CPU] = c.cpuPerWorker()
	total, cpuOnly := c.factors(extra)
	c.busy++
	c.curDemand = c.curDemand.Add(qw.w.Demand)
	// A worker stalled on a non-CPU resource burns fewer cycles: its CPU
	// charge is scaled by how much of the slowdown is CPU-driven.
	cpuCharge := c.cpuPerWorker() * cpuOnly / total
	c.cpuActive += cpuCharge
	nodeDemand := c.effectiveNodeDemand(qw.w.Demand)
	nodeDemand[CPU] = cpuCharge
	c.node.usage = c.node.usage.Add(nodeDemand)

	base := float64(qw.w.Base) * c.node.Prof.SpeedFactor
	// Fractional CPU limits below one worker inflate service time (the
	// container only gets limits[CPU] of a core).
	if c.limits[CPU] < 1 && c.limits[CPU] > 0 {
		base /= c.limits[CPU]
	}
	noise := 1.0
	if c.cfg.NoiseSD > 0 {
		rng := c.eng.Rand()
		if c.hasNoise {
			rng = c.sampler.On(&c.noise)
		}
		noise = sim.NormalClamped(rng, 1, c.cfg.NoiseSD, 0.5, 2.0)
	}
	dur := sim.Time(base * total * noise)
	if dur < 1 {
		dur = 1
	}
	var r *running
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		//firmvet:allow noalloc -- freelist warm-up miss; a container allocates one record per concurrently busy worker, then recycles them
		r = &running{c: c}
	}
	r.w, r.queued, r.dur = qw.w, now-qw.enqueued, dur
	r.cpuCharge, r.nodeDemand = cpuCharge, nodeDemand
	c.eng.ScheduleAction(dur, r)
}

// Fire completes the work item: the worker, its demand and its CPU charge
// go back to the container and node, the handler hears the outcome, and the
// freed worker takes the next queued item.
//
//firmvet:noalloc
func (r *running) Fire() {
	c := r.c
	c.busy--
	c.busyInt += float64(r.dur)
	c.cpuActive -= r.cpuCharge
	if c.cpuActive < 0 {
		c.cpuActive = 0
	}
	c.curDemand = c.curDemand.Sub(r.w.Demand).ClampNonNeg()
	c.node.usage = c.node.usage.Sub(r.nodeDemand).ClampNonNeg()
	c.Completed++
	// Recycle before notifying: the handler may submit more work here.
	h, queued, dur := r.w.Handler, r.queued, r.dur
	r.w.Handler = nil
	c.free = append(c.free, r)
	if h != nil {
		h.WorkDone(queued, dur)
	}
	c.dispatch()
}

// effectiveNodeDemand converts per-request demand into node-level load,
// capping each resource at the container limit (a container cannot pull more
// bandwidth than its partition allows — that is the point of Intel MBA/CAT
// style partitioning).
func (c *Container) effectiveNodeDemand(d Vector) Vector {
	out := d
	for r := MemBW; r < NumResources; r++ {
		if c.limits[r] > 0 && out[r] > c.limits[r] {
			out[r] = c.limits[r]
		}
	}
	out[CPU] = c.cpuPerWorker()
	return out
}
