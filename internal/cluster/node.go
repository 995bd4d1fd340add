package cluster

// Node is a physical machine hosting containers. It tracks instantaneous
// resource usage (the sum of demand rates of all in-flight requests on its
// containers), anomaly-injected background load, and the total CPU allocated
// to container limits (used for placement and the "requested CPU" metric of
// Fig. 10(b)).
type Node struct {
	ID       string
	Prof     HardwareProfile
	usage    Vector // demand from in-flight container work
	inject   Vector // injector-generated background contention
	cpuAlloc float64
}

// NewNode creates a node with the given hardware profile.
func NewNode(id string, prof HardwareProfile) *Node {
	return &Node{ID: id, Prof: prof}
}

// reset empties the node (Cluster.Reset).
func (n *Node) reset() {
	n.usage, n.inject, n.cpuAlloc = Vector{}, Vector{}, 0
}

// Capacity returns the node's total resource capacities.
func (n *Node) Capacity() Vector { return n.Prof.Capacity }

// Usage returns current demand (in-flight work plus injected load).
func (n *Node) Usage() Vector { return n.usage.Add(n.inject).ClampNonNeg() }

// Utilization returns Usage/Capacity per resource.
func (n *Node) Utilization() Vector { return n.Usage().Div(n.Prof.Capacity) }

// InjectedLoad returns the current anomaly-injected background load.
func (n *Node) InjectedLoad() Vector { return n.inject }

// SetInjectedLoad replaces the anomaly background load on this node. The
// injector expresses intensities as absolute resource amounts (e.g. MB/s of
// streaming memory traffic from an iBench-style stressor).
func (n *Node) SetInjectedLoad(v Vector) { n.inject = v.ClampNonNeg() }

// AddInjectedLoad accumulates anomaly load (multiple concurrent anomalies).
func (n *Node) AddInjectedLoad(v Vector) { n.inject = n.inject.Add(v).ClampNonNeg() }

// FreeCPU returns unallocated CPU capacity.
func (n *Node) FreeCPU() float64 { return n.Prof.Capacity[CPU] - n.cpuAlloc }

// contentionFactor returns how oversubscribed the node's most-contended
// resource is (≥1 means saturated). CPU is excluded at node level because
// CPU contention is mediated by per-container worker pools and limits; the
// remaining resources (memory bandwidth, LLC, disk and network bandwidth)
// are shared transparently, which is exactly the contention FIRM targets.
func (n *Node) contentionFactor() float64 {
	f := 1.0
	use := n.Usage()
	for r := MemBW; r < NumResources; r++ {
		if cap := n.Prof.Capacity[r]; cap > 0 {
			if x := use[r] / cap; x > f {
				f = x
			}
		}
	}
	return f
}

// PerCoreDRAMAccess is a telemetry proxy for the perf counters in Table 2
// (offcore_response.*.llc_miss.local_DRAM): memory-bandwidth demand divided
// by allocated cores. Fig. 1's middle panel plots this signal.
func (n *Node) PerCoreDRAMAccess() float64 {
	cores := n.cpuAlloc
	if cores < 1 {
		cores = 1
	}
	return n.Usage()[MemBW] / cores
}

// attach and detach count a container's CPU limit in and out of the
// node's allocation. Each container is attached once, when place mints it,
// and detached once, when RemoveReplica takes it out of its set.
func (n *Node) attach(c *Container) { n.cpuAlloc += c.limits[CPU] }

func (n *Node) detach(c *Container) { n.adjustCPUAlloc(-c.limits[CPU]) }

func (n *Node) adjustCPUAlloc(delta float64) {
	n.cpuAlloc += delta
	if n.cpuAlloc < 0 {
		n.cpuAlloc = 0
	}
}
