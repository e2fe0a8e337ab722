package cluster

import (
	"fmt"

	"comb/internal/sim"
)

// Node is one simulated host: a CPU plus its platform parameters.  NIC
// behaviour lives in the transport layer, which attaches itself to the
// fabric port carrying the node's ID.
type Node struct {
	ID  int
	Env *sim.Env
	CPU *CPU
	P   Platform
}

// Memcpy charges the calling process the CPU time to copy n bytes at the
// platform's host copy bandwidth, at priority prio.
func (n *Node) Memcpy(p *sim.Proc, bytes int, prio Priority) {
	n.CPU.Use(p, n.P.CopyTime(bytes), prio)
}

// Work charges the calling process iters empty loop iterations of user-
// priority CPU time.  This is the COMB "simulated computation": elapsed
// virtual time exceeds the demand whenever kernel work or interrupts steal
// the CPU, which is exactly what the availability metric measures.
func (n *Node) Work(p *sim.Proc, iters int64) {
	n.CPU.Use(p, n.P.WorkTime(iters), User)
}

// System is a complete simulated cluster: an environment, n nodes and the
// fabric connecting them.
//
// A serial system has one environment shared by every node (Env, and
// Envs of length one aliasing it).  A partitioned system — the parallel
// engine — gives every node its own environment: Env is nil, Envs holds
// one partition environment per node, and each Node.Env points at its
// partition.  Code that needs "the" environment must either be explicitly
// serial-only (use Env) or node-scoped (use Nodes[i].Env).
type System struct {
	Env    *sim.Env   // serial engine's single environment; nil when partitioned
	Envs   []*sim.Env // all environments: len 1 (serial) or one per node
	Nodes  []*Node
	Fabric *Fabric
	P      Platform
}

// NewSystem builds a cluster of n identical nodes on a fresh environment.
func NewSystem(n int, p Platform) *System {
	if n < 1 {
		panic(fmt.Sprintf("cluster: need at least one node, got %d", n))
	}
	env := sim.NewEnv()
	s := &System{
		Env:    env,
		Envs:   []*sim.Env{env},
		Fabric: NewFabric(env, n, p.Link),
		P:      p,
	}
	s.addNodes(n)
	return s
}

// NewPartitionedSystem builds a cluster of n identical nodes for the
// parallel engine: one partition environment per node, connected by a
// partitioned fabric.  Callers drive it with sim.NewWindows over s.Envs
// using the fabric's Lookahead and Merge.
func NewPartitionedSystem(n int, p Platform) *System {
	if n < 2 {
		panic(fmt.Sprintf("cluster: a partitioned system needs at least two nodes, got %d", n))
	}
	envs := make([]*sim.Env, n)
	for i := range envs {
		envs[i] = sim.NewPartitionEnv(i)
	}
	s := &System{
		Envs:   envs,
		Fabric: NewParallelFabric(envs, p.Link),
		P:      p,
	}
	s.addNodes(n)
	return s
}

// addNodes creates the n nodes: on the shared Env of a serial system, on
// their own partition environments otherwise.
func (s *System) addNodes(n int) {
	cores := s.P.CPUs
	if cores == 0 {
		cores = 1
	}
	for i := 0; i < n; i++ {
		env := s.Env
		if env == nil {
			env = s.Envs[i]
		}
		s.Nodes = append(s.Nodes, &Node{
			ID:  i,
			Env: env,
			CPU: NewSMP(env, fmt.Sprintf("cpu%d", i), cores),
			P:   s.P,
		})
	}
}

// Partitioned reports whether this system runs one environment per node.
func (s *System) Partitioned() bool { return s.Env == nil }

// Now returns the cluster's virtual time: the single clock on a serial
// system, the furthest partition clock on a partitioned one (meaningful
// between windows or after the run, when all partitions have drained to
// the same bound).
func (s *System) Now() sim.Time {
	if s.Env != nil {
		return s.Env.Now()
	}
	var t sim.Time
	for _, e := range s.Envs {
		if n := e.Now(); n > t {
			t = n
		}
	}
	return t
}

// Close releases the underlying simulation environment(s).
func (s *System) Close() {
	for _, e := range s.Envs {
		e.Close()
	}
}
