package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"firm/internal/sim"
)

// Config tunes the substrate's behaviour.
type Config struct {
	// QueueCap bounds each container's FIFO queue; beyond it requests are
	// shed (Fig. 10(c) counts drops).
	QueueCap int
	// SlowdownExp shapes how oversubscription translates into service-time
	// inflation (1 = linear; >1 punishes saturation harder, modelling
	// thrashing effects near the knee).
	SlowdownExp float64
	// NoiseSD is the relative standard deviation of service-time noise.
	NoiseSD float64
	// MinLimit is the per-resource floor for container limits (the paper's
	// lower limit Ř: e.g. CPU time cannot be set to 0).
	MinLimit Vector
	// PerInstanceNoise gives every container its own service-time noise
	// stream keyed by (NoiseSeed, service, replica ordinal) instead of the
	// engine's shared stream. Sharded runs require it: the noise a replica
	// sees must depend only on which replica it is, never on which shard's
	// engine executes it or what else that engine has drawn.
	PerInstanceNoise bool
	NoiseSeed        int64
}

// warmStartDelay and coldStartDelay are container start latencies (Table 6:
// warm 45.7±6.9 ms, cold 2050.8±291.4 ms).
const (
	warmStartDelay = 45_700 * sim.Microsecond
	coldStartDelay = 2_050_800 * sim.Microsecond
)

// DefaultConfig returns the configuration used across experiments.
func DefaultConfig() Config {
	return Config{
		QueueCap:    512,
		SlowdownExp: 1.6,
		NoiseSD:     0.06,
		MinLimit:    V(0.1, 50, 0.5, 10, 10),
	}
}

// Cluster is the set of nodes plus container placement and replica-set
// bookkeeping. It is the "Kubernetes" of the reproduction: the deployment
// module (internal/deploy) actuates FIRM's decisions against it.
type Cluster struct {
	eng    *sim.Engine
	cfg    Config
	nodes  []*Node
	sets   map[string]*ReplicaSet
	nextID uint32
	// byID holds every replica set in deploy order (index = ReplicaSet.ID);
	// placed holds every container placed since New or Reset, retired ones
	// included (index = Container.ID - 1). Together they are the testbed's name
	// table — see ServiceName and InstanceName.
	byID   []*ReplicaSet
	placed []*Container
	// sampler draws every container's noise under Config.PerInstanceNoise.
	sampler *sim.Sampler
	// spareSets and spare hold the replica sets and containers of the
	// deployment before the last Reset, for newSet and place to recycle.
	spareSets []*ReplicaSet
	spare     []*Container

	// setsSorted caches the sorted ReplicaSets view; between Resets, which
	// drop it, services are only ever added (DeployService rejects
	// duplicates, nothing deletes), so a length check detects staleness.
	setsSorted []*ReplicaSet
}

// New creates a cluster driven by eng.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 512
	}
	if cfg.SlowdownExp <= 0 {
		cfg.SlowdownExp = 1
	}
	cl := &Cluster{eng: eng, cfg: cfg, sets: make(map[string]*ReplicaSet)}
	if cfg.PerInstanceNoise {
		cl.sampler = sim.NewSampler()
	}
	return cl
}

// Reset empties the cluster: its nodes stay, hosting nothing, and it holds
// no replica set, so it is what New and the same AddNode calls build — the
// next container placed is ID 1 again. The replica sets and containers of
// the old deployment are recycled for the next one, keeping their queue
// storage and in-flight records, so nothing may use one from before the
// Reset. Work still in flight is abandoned: the engine's events must have
// been discarded with it (sim.Engine.Reset).
func (cl *Cluster) Reset() {
	for _, n := range cl.nodes {
		n.reset()
	}
	clear(cl.sets)
	cl.setsSorted = nil
	cl.nextID = 0
	cl.spareSets = append(cl.spareSets, cl.byID...)
	clear(cl.byID)
	cl.byID = cl.byID[:0]
	cl.spare = append(cl.spare, cl.placed...)
	clear(cl.placed)
	cl.placed = cl.placed[:0]
}

// Engine returns the driving simulation engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// AddNode appends a node built from the profile and returns it.
func (cl *Cluster) AddNode(prof HardwareProfile) *Node {
	n := NewNode(fmt.Sprintf("node-%d", len(cl.nodes)), prof)
	cl.nodes = append(cl.nodes, n)
	return n
}

// Nodes returns all nodes.
func (cl *Cluster) Nodes() []*Node { return cl.nodes }

// ReplicaSet returns the replica set for a service name, or nil.
func (cl *Cluster) ReplicaSet(service string) *ReplicaSet { return cl.sets[service] }

// ReplicaSets returns all replica sets sorted by service name. The slice
// is cached — the control loop iterates it every tick and set membership
// only changes on DeployService — so callers must treat it as read-only.
func (cl *Cluster) ReplicaSets() []*ReplicaSet {
	if len(cl.setsSorted) != len(cl.sets) {
		// Rebuild into a fresh slice: reusing the backing array would
		// rewrite slices handed out before the rebuild.
		sorted := make([]*ReplicaSet, 0, len(cl.sets))
		for _, rs := range cl.sets {
			sorted = append(sorted, rs)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Service < sorted[j].Service })
		cl.setsSorted = sorted
	}
	return cl.setsSorted
}

// Container returns the live container with the given instance ID, or nil
// if there is none or it has been retired.
//
//firmvet:noalloc
func (cl *Cluster) Container(id uint32) *Container {
	if id-1 < uint32(len(cl.placed)) && !cl.placed[id-1].retired {
		return cl.placed[id-1]
	}
	return nil
}

// ServiceName resolves a ReplicaSet.ID — the service ID spans carry — to the
// service name. With InstanceName it makes the cluster a trace.Names: IDs
// are minted here, so names resolve here, and only where a string leaves
// the system.
//
//firmvet:noalloc
func (cl *Cluster) ServiceName(id uint32) string { return cl.byID[id].Service }

// InstanceName resolves a Container.ID to the container's name. Retired
// containers keep theirs: spans that name them outlive them.
//
//firmvet:noalloc
func (cl *Cluster) InstanceName(id uint32) string { return cl.placed[id-1].Name }

// TotalRequestedCPU sums CPU limits over all ready containers; expressed in
// cores (multiply by 100 for the "%CPU" axis of Fig. 10(b)). The sum runs
// over the sorted replica sets: float addition is order-sensitive, and
// iterating the service map directly would round in a different order each
// run (latent nondeterminism flagged by firmvet's maporder check).
func (cl *Cluster) TotalRequestedCPU() float64 {
	var sum float64
	for _, rs := range cl.ReplicaSets() {
		for _, c := range rs.containers {
			sum += c.limits[CPU]
		}
	}
	return sum
}

// pickNode returns the node with the most free (unallocated) CPU that can
// fit cpuReq more cores; nil if none fits.
func (cl *Cluster) pickNode(cpuReq float64) *Node {
	var best *Node
	for _, n := range cl.nodes {
		if n.FreeCPU() < cpuReq {
			continue
		}
		if best == nil || n.FreeCPU() > best.FreeCPU() {
			best = n
		}
	}
	return best
}

// ErrNoCapacity is reported when no node can host a requested container.
var ErrNoCapacity = fmt.Errorf("cluster: no node with sufficient free CPU")

// ReplicaSet groups the container replicas of one microservice and load-
// balances across them round-robin (the Kubernetes Service/Deployment pair).
type ReplicaSet struct {
	Service    string
	cl         *Cluster
	containers []*Container
	rr         int
	// ID is the service's dense identity: its rank in deploy order, which
	// for an app.Deploy'ed spec is its rank in sorted name order.
	ID uint32
	// placed counts the replicas ever placed, retired ones included: the
	// next replica's ordinal, which no survivor can already hold.
	placed uint32
}

// DeployService creates a replica set with `replicas` containers, each with
// the given limits. Containers start warm (the initial deployment is part of
// experiment setup, not a measured action).
func (cl *Cluster) DeployService(service string, replicas int, limits Vector) (*ReplicaSet, error) {
	rs, err := cl.newSet(service)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		if _, err := rs.AddReplica(limits, false, true); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// newSet registers an empty replica set under the next service ID. Spans
// carry that ID in 16 bits (trace.Span.Service), so a cluster holds at most
// 65,536 replica sets and panics rather than mint an ID that would truncate.
func (cl *Cluster) newSet(service string) (*ReplicaSet, error) {
	if _, dup := cl.sets[service]; dup {
		return nil, fmt.Errorf("cluster: service %s already deployed", service)
	}
	if len(cl.byID) > math.MaxUint16 {
		panic("cluster: service IDs exhausted (65,536 replica sets, the bound of trace.Span.Service)")
	}
	var rs *ReplicaSet
	if n := len(cl.spareSets); n > 0 {
		rs, cl.spareSets = cl.spareSets[n-1], cl.spareSets[:n-1]
		clear(rs.containers)
		*rs = ReplicaSet{containers: rs.containers[:0]}
	} else {
		rs = new(ReplicaSet)
	}
	rs.Service, rs.ID, rs.cl = service, uint32(len(cl.byID)), cl
	cl.sets[service] = rs
	cl.byID = append(cl.byID, rs)
	return rs, nil
}

// AddReplica places one more container for the service. cold selects the
// cold-start delay; instant skips the start delay entirely (setup only).
func (rs *ReplicaSet) AddReplica(limits Vector, cold, instant bool) (*Container, error) {
	node := rs.cl.pickNode(limits[CPU])
	if node == nil {
		return nil, ErrNoCapacity
	}
	return rs.place(node, limits, cold, instant)
}

// place attaches one container to the given node. Under PerInstanceNoise the
// replica's noise stream is keyed by its ordinal within the set (the count of
// replicas placed before it, so a scale-out after a scale-in never repeats a
// survivor's) — not by the cluster-global container ID, which depends on
// deployment interleaving.
func (rs *ReplicaSet) place(node *Node, limits Vector, cold, instant bool) (*Container, error) {
	rs.cl.nextID++
	c := rs.cl.recycle()
	c.ID = rs.cl.nextID
	c.Name = rs.Service + "-" + strconv.FormatUint(uint64(rs.cl.nextID), 10)
	c.Service, c.eng, c.cfg, c.node = rs.Service, rs.cl.eng, rs.cl.cfg, node
	c.limits = limits.Min(node.Prof.Capacity)
	rs.cl.placed = append(rs.cl.placed, c)
	if rs.cl.cfg.PerInstanceNoise {
		c.hasNoise, c.sampler = true, rs.cl.sampler
		c.noise = sim.NewSplitMix64(sim.DeriveSeed(rs.cl.cfg.NoiseSeed, "noise/", rs.Service, "/", strconv.Itoa(int(rs.placed))))
	}
	rs.placed++
	if err := node.attach(c); err != nil {
		return nil, err
	}
	rs.containers = append(rs.containers, c)
	if instant {
		c.ready = true
		return c, nil
	}
	delay := warmStartDelay
	if cold {
		delay = coldStartDelay
	}
	rs.cl.eng.Schedule(delay, func() {
		// A replica retired during its start delay stays down: RemoveReplica
		// has detached it from its node.
		if !c.retired {
			c.ready = true
		}
	})
	return c, nil
}

// recycle returns a zeroed container for place: a spare from before the last
// Reset, keeping its queue storage and in-flight records, or a new one.
func (cl *Cluster) recycle() *Container {
	n := len(cl.spare)
	if n == 0 {
		return new(Container)
	}
	c := cl.spare[n-1]
	cl.spare[n-1] = nil
	cl.spare = cl.spare[:n-1]
	c.queue.Reset()
	*c = Container{queue: c.queue, free: c.free}
	return c
}

// DeployServiceOn creates a replica set with all containers pinned to node,
// bypassing pickNode. The sharded harness uses it to realise a placement
// computed globally (so the node→shard mapping, not free-CPU order at deploy
// time, decides where every replica lives).
func (cl *Cluster) DeployServiceOn(node *Node, service string, replicas int, limits Vector) (*ReplicaSet, error) {
	rs, err := cl.newSet(service)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replicas; i++ {
		if _, err := rs.place(node, limits, false, true); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// RemoveReplica retires the given container (scale-in). Queued work is
// dropped; in-flight work completes against a detached node.
func (rs *ReplicaSet) RemoveReplica(c *Container) bool {
	for i, cc := range rs.containers {
		if cc == c {
			rs.containers = append(rs.containers[:i], rs.containers[i+1:]...)
			c.ready, c.retired = false, true
			c.dropQueued()
			c.node.detach(c)
			return true
		}
	}
	return false
}

// Containers returns the replicas (live view; do not mutate).
func (rs *ReplicaSet) Containers() []*Container { return rs.containers }

// ReadyCount returns the number of ready replicas.
func (rs *ReplicaSet) ReadyCount() int {
	n := 0
	for _, c := range rs.containers {
		if c.ready {
			n++
		}
	}
	return n
}

// Pick selects the next ready container round-robin; nil if none is ready.
func (rs *ReplicaSet) Pick() *Container {
	n := len(rs.containers)
	for i := 0; i < n; i++ {
		c := rs.containers[rs.rr%n]
		rs.rr++
		if c.ready {
			return c
		}
	}
	return nil
}

// Utilization aggregates utilization across ready replicas (mean), the
// signal the K8s-HPA baseline scales on.
func (rs *ReplicaSet) Utilization() Vector {
	var sum Vector
	n := 0
	for _, c := range rs.containers {
		if c.ready {
			sum = sum.Add(c.Utilization())
			n++
		}
	}
	if n == 0 {
		return Vector{}
	}
	return sum.Scale(1 / float64(n))
}
