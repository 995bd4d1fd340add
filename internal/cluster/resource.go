// Package cluster simulates the compute substrate FIRM manages: physical
// nodes with finite low-level resources (CPU, memory bandwidth, LLC, disk
// I/O bandwidth, network bandwidth), containers with per-resource limits and
// FIFO request queues, and replica sets with round-robin load balancing.
//
// The paper ran on a 15-node Kubernetes cluster; this package reproduces the
// observable behaviour that FIRM's control plane depends on — queueing
// delay, shared-resource contention slowdowns, per-resource utilization
// telemetry, scale-up (partitioning) and scale-out (replication) semantics —
// on a deterministic discrete-event engine.
package cluster

import "fmt"

// Resource identifies one of the five fine-grained resource types FIRM
// controls (§3.4: "CPU time, memory bandwidth, LLC capacity, disk I/O
// bandwidth, and network bandwidth").
type Resource int

// The controlled resources, in the order used by RL state/action vectors.
const (
	CPU Resource = iota
	MemBW
	LLC
	IOBW
	NetBW
	NumResources
)

var resourceNames = [NumResources]string{"cpu", "membw", "llc", "iobw", "netbw"}

// String returns the short lowercase name of the resource.
func (r Resource) String() string {
	if r < 0 || r >= NumResources {
		return fmt.Sprintf("resource(%d)", int(r))
	}
	return resourceNames[r]
}

// Vector holds one value per resource type. Units are model units: CPU in
// cores, MemBW in MB/s, LLC in MB, IOBW in MB/s, NetBW in Mbps.
type Vector [NumResources]float64

// Add returns v + o element-wise.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o element-wise.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Div returns element-wise v / o, with 0/0 = 0 and x/0 = +Inf semantics
// avoided by treating a zero denominator as "no constraint" (result 0).
func (v Vector) Div(o Vector) Vector {
	var out Vector
	for i := range v {
		if o[i] > 0 {
			out[i] = v[i] / o[i]
		}
	}
	return out
}

// MaxElem returns the maximum element of v.
func (v Vector) MaxElem() float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ClampNonNeg replaces negative elements with zero (guards accumulated
// floating-point drift in usage accounting).
func (v Vector) ClampNonNeg() Vector {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
	return v
}

// Min returns the element-wise minimum of v and o.
func (v Vector) Min(o Vector) Vector {
	for i := range v {
		if o[i] < v[i] {
			v[i] = o[i]
		}
	}
	return v
}

// V is a convenience constructor: V(cpu, membw, llc, iobw, netbw).
func V(cpu, membw, llc, iobw, netbw float64) Vector {
	return Vector{cpu, membw, llc, iobw, netbw}
}

// ISA distinguishes the two processor families in the paper's testbed
// (§4.1: nine Intel x86 Xeon nodes, six IBM ppc64 Power8/9 nodes). Fig. 9(b)
// compares localization accuracy across the two.
type ISA string

// Supported instruction-set architectures.
const (
	X86   ISA = "x86"
	PPC64 ISA = "ppc64"
)

// HardwareProfile describes a node type. SpeedFactor scales base service
// times (ppc64 nodes in the paper have more cores per socket but different
// single-thread performance).
type HardwareProfile struct {
	Name        string
	Arch        ISA
	Capacity    Vector  // total node resources
	SpeedFactor float64 // multiplier on service times (1.0 = reference)
}

// Default hardware profiles mirroring the paper's testbed classes: two-
// socket servers with 56–192 cores and large memory. Capacities are model
// units chosen so a handful of microservice containers contend realistically.
var (
	// XeonProfile models the Intel x86 Xeon E5/E7 class nodes.
	XeonProfile = HardwareProfile{
		Name:        "xeon-e5",
		Arch:        X86,
		Capacity:    V(56, 60000, 38, 4000, 10000),
		SpeedFactor: 1.0,
	}
	// PowerProfile models the IBM ppc64 Power8/9 class nodes: more cores,
	// higher memory bandwidth, slightly different per-core speed.
	PowerProfile = HardwareProfile{
		Name:        "power9",
		Arch:        PPC64,
		Capacity:    V(96, 80000, 48, 4000, 10000),
		SpeedFactor: 0.95,
	}
)
