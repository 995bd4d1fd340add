package cluster

// CPUAllocated returns the sum of CPU limits across hosted containers.
func (n *Node) CPUAllocated() float64 { return n.cpuAlloc }
