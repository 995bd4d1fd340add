// Package deploy implements FIRM's Deployment Module (§3.5, ⑤ in Fig. 6):
// it validates actions generated by the RL agent and actuates them on the
// cluster with realistic operation latencies (Table 6). Scale-up actions
// that would oversubscribe a node's resources are replaced by scale-out
// operations, exactly as §3.5 prescribes.
//
// Actuator mapping (paper → simulation): cgroups cpu.cfs_quota_us → CPU
// limit; Intel MBA/CAT → memory-bandwidth/LLC limits; cgroups blkio → I/O
// limit; tc HTB qdiscs → network limit; Kubernetes pod start → replica add.
package deploy

import (
	"math"

	"firm/internal/cluster"
	"firm/internal/sim"
)

// Op identifies a resource-management operation type (the Table 6 rows).
type Op int

// Operation kinds.
const (
	OpCPU Op = iota
	OpMem
	OpLLC
	OpIO
	OpNet
	OpWarmStart
	OpColdStart
	NumOps
)

var opNames = [NumOps]string{"cpu", "mem", "llc", "io", "net", "warm-start", "cold-start"}

// String names the operation.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "op(?)"
	}
	return opNames[o]
}

// opLatency holds Table 6's mean/SD operation latencies in ms.
var opLatency = [NumOps][2]float64{
	OpCPU:       {2.1, 0.3},
	OpMem:       {42.4, 11.0},
	OpLLC:       {39.8, 9.2},
	OpIO:        {2.3, 0.4},
	OpNet:       {12.3, 1.1},
	OpWarmStart: {45.7, 6.9},
	OpColdStart: {2050.8, 291.4},
}

// Paper returns the operation's Table 6 mean and SD latency in ms: the
// values the module draws from, and the paper's measurements.
func (o Op) Paper() (mean, sd float64) { return opLatency[o][0], opLatency[o][1] }

// Module actuates resource-management actions.
type Module struct {
	eng *sim.Engine
	cl  *cluster.Cluster

	// measured operation latencies (ms) per op, for the Table 6 experiment.
	measured [NumOps][]float64

	// Counters.
	ScaleUps  uint64
	ScaleOuts uint64
	Rejected  uint64
}

// New creates a deployment module for the cluster.
func New(eng *sim.Engine, cl *cluster.Cluster) *Module {
	return &Module{eng: eng, cl: cl}
}

// opDelay draws an operation latency from Table 6's distribution and
// records the observation.
func (m *Module) opDelay(o Op) sim.Time {
	mean, sd := opLatency[o][0], opLatency[o][1]
	ms := sim.NormalClamped(m.eng.Rand(), mean, sd, mean-3*sd, mean+3*sd)
	if ms < 0.1 {
		ms = 0.1
	}
	m.measured[o] = append(m.measured[o], ms)
	return sim.FromMillis(ms)
}

// Measured returns the recorded operation latencies (ms) for an op.
func (m *Module) Measured(o Op) []float64 { return m.measured[o] }

var resourceOp = [cluster.NumResources]Op{
	cluster.CPU:   OpCPU,
	cluster.MemBW: OpMem,
	cluster.LLC:   OpLLC,
	cluster.IOBW:  OpIO,
	cluster.NetBW: OpNet,
}

// ApplyLimits actuates a scale-up/down partitioning action: each changed
// resource pays its Table 6 partition latency; the slowest partition op
// gates completion (they run in parallel, as independent cgroup writes do).
// If the new CPU limit would oversubscribe the node, the action is replaced
// by a scale-out (§3.5), and replaced=true is returned.
func (m *Module) ApplyLimits(c *cluster.Container, limits cluster.Vector, onDone func()) (replaced bool) {
	cur := c.Limits()
	node := c.Node()
	// Validation: oversubscription of the hosting node → scale out instead.
	cpuDelta := limits[cluster.CPU] - cur[cluster.CPU]
	if cpuDelta > 0 && cpuDelta > node.FreeCPU() {
		rs := m.cl.ReplicaSet(c.Service)
		if rs != nil {
			m.ScaleOut(rs, cur, false, onDone)
			return true
		}
	}
	var maxDelay sim.Time
	changed := false
	for r := cluster.Resource(0); r < cluster.NumResources; r++ {
		if math.Abs(limits[r]-cur[r]) < 1e-9 {
			continue
		}
		changed = true
		if d := m.opDelay(resourceOp[r]); d > maxDelay {
			maxDelay = d
		}
	}
	if !changed {
		m.Rejected++
		if onDone != nil {
			onDone()
		}
		return false
	}
	m.ScaleUps++
	m.eng.Schedule(maxDelay, func() {
		c.SetLimits(limits)
		if onDone != nil {
			onDone()
		}
	})
	return false
}

// ScaleOut adds one replica to the service with the given limits. cold
// selects a cold container start (no warm image on the target node).
func (m *Module) ScaleOut(rs *cluster.ReplicaSet, limits cluster.Vector, cold bool, onDone func()) (*cluster.Container, error) {
	op := OpWarmStart
	if cold {
		op = OpColdStart
	}
	// Record the start latency; the cluster applies its own configured
	// start delay to readiness, so here the latency gates onDone.
	d := m.opDelay(op)
	c, err := rs.AddReplica(limits, cold, false)
	if err != nil {
		m.Rejected++
		if onDone != nil {
			onDone()
		}
		return nil, err
	}
	m.ScaleOuts++
	m.eng.Schedule(d, func() {
		if onDone != nil {
			onDone()
		}
	})
	return c, nil
}

// ScaleIn removes a replica (the scale-down counterpart of scale-out).
func (m *Module) ScaleIn(rs *cluster.ReplicaSet, c *cluster.Container) bool {
	return rs.RemoveReplica(c)
}
