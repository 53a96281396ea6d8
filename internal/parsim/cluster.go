package parsim

import (
	"fmt"

	"spp1000/internal/counters"
	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Cluster is a simulated SPP-1000 built for partitioned execution: one
// share-nothing 1-hypernode machine.Machine per simulated hypernode,
// joined by a Coordinator whose lookahead is the machine's minimum
// cross-hypernode latency (topology.Params.InterNodeLookahead). Each
// machine owns its caches, directories, rings, banks, and threads;
// everything that crosses a hypernode boundary — thread dispatch, join
// notification, barrier traffic — travels as timestamped partition
// messages. That structure is what lets each partition run its window
// on its own: within a window no partition can observe another.
type Cluster struct {
	// Coord drives the partitions (Coordinator.Run is called by Run).
	Coord *Coordinator
	// Nodes are the per-hypernode machines, index = global hypernode.
	Nodes []*ClusterNode
	// Topo is the whole simulated machine (placement, CPU numbering,
	// ring hop counts); each node's own machine is a 1-hypernode slice.
	Topo topology.Topology

	p topology.Params // shared by every node
}

// ClusterNode is one hypernode slice of a Cluster.
type ClusterNode struct {
	// M is the node's private 1-hypernode machine.
	M *machine.Machine
	// Part is the node's partition handle (cross-node messaging).
	Part *Partition
}

// NewCluster builds a cluster of hn hypernodes with default parameters.
func NewCluster(hn int) (*Cluster, error) {
	topo, err := topology.New(hn)
	if err != nil {
		return nil, err
	}
	p := topology.DefaultParams()
	c := &Cluster{Topo: topo, p: p}
	kernels := make([]*sim.Kernel, hn)
	for i := 0; i < hn; i++ {
		m, err := machine.New(machine.Config{Hypernodes: 1, NodeIndex: i})
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, &ClusterNode{M: m})
		kernels[i] = m.K
	}
	c.Coord, err = New(sim.Cycles(p.InterNodeLookahead()), kernels)
	if err != nil {
		return nil, err
	}
	for i, n := range c.Nodes {
		n.Part = c.Coord.Partition(i)
	}
	return c, nil
}

// NodeFor maps a global CPU to its node and the CPU's identity on that
// node's 1-hypernode machine.
func (c *Cluster) NodeFor(cpu topology.CPUID) (*ClusterNode, topology.CPUID) {
	return c.Nodes[cpu.Hypernode()], topology.MakeCPU(0, cpu.FU(), cpu.Local())
}

// Run executes the partitioned simulation to completion and publishes
// each node's counter deltas to any attached collector (the partitioned
// analogue of machine.Run).
func (c *Cluster) Run() error {
	err := c.Coord.Run()
	for _, n := range c.Nodes {
		counters.Publish(n.M.Counters)
	}
	return err
}

// Params is the shared parameter set.
func (c *Cluster) Params() topology.Params { return c.p }

// Topology is the whole simulated machine.
func (c *Cluster) Topology() topology.Topology { return c.Topo }

// NewEngine builds a cluster of hn hypernodes as an application engine.
func NewEngine(hn int) (threads.Engine, error) {
	c, err := NewCluster(hn)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// RunTeam forks a team of n threads across the cluster under the
// high-locality placement through threads.ForkJoinVia, runs the
// partitioned simulation to completion, and reports the fork-to-join
// virtual duration observed by the parent on hypernode 0 — the
// partitioned analogue of threads.RunTeam, with the same costs and the
// same threads counters.
func (c *Cluster) RunTeam(n int, body func(th *machine.Thread, tid int)) (sim.Cycles, error) {
	if n < 1 {
		return 0, fmt.Errorf("parsim: team size must be >= 1, got %d", n)
	}
	if n > c.Topo.NumCPUs() {
		return 0, fmt.Errorf("parsim: team of %d exceeds the machine's %d CPUs", n, c.Topo.NumCPUs())
	}
	var elapsed sim.Cycles
	c.Nodes[0].M.Spawn("main", topology.MakeCPU(0, 0, 0), func(parent *machine.Thread) {
		start := parent.Now()
		threads.ForkJoinVia(c, c.Topo, parent, n, threads.HighLocality, body)
		elapsed = parent.Now() - start
	})
	if err := c.Run(); err != nil {
		return 0, err
	}
	return elapsed, nil
}

// Launch implements threads.Dispatcher. A child on hypernode 0 spawns
// on the root's kernel. A child elsewhere is posted to its node's
// partition as a message stamped with its start time — legal because
// the fork dispatches it a full ThreadSpawnRemote ahead, which far
// exceeds the lookahead.
func (c *Cluster) Launch(at sim.Cycles, name string, cpu topology.CPUID, fn func(th *machine.Thread)) {
	node, local := c.NodeFor(cpu)
	if cpu.Hypernode() == 0 {
		node.M.SpawnAt(at, name, local, fn)
		return
	}
	c.Nodes[0].Part.Post(cpu.Hypernode(), at, func() { node.M.SpawnAt(at, name, local, fn) })
}

// Join implements threads.Dispatcher. A child off hypernode 0 sends its
// completion back one lookahead after it finishes: the minimum ring
// crossing, and the exact window horizon, which exercises the half-open
// boundary on every run.
func (c *Cluster) Join(cpu topology.CPUID, join *sim.Semaphore) {
	if cpu.Hypernode() == 0 {
		join.V()
		return
	}
	node := c.Nodes[cpu.Hypernode()]
	node.Part.Post(0, node.M.Now()+sim.Cycles(c.p.InterNodeLookahead()), join.V)
}

// TeamBarrier implements threads.Engine: a ClusterBarrier counting each
// node's participants from the team's high-locality placement, waited
// on by team index.
func (c *Cluster) TeamBarrier(n int) (threads.TeamBarrier, error) {
	t := teamBarrier{nodeOf: make([]int, n)}
	counts := make([]int, len(c.Nodes))
	for tid := range t.nodeOf {
		t.nodeOf[tid] = threads.CPUFor(c.Topo, threads.HighLocality, tid, n).Hypernode()
		counts[t.nodeOf[tid]]++
	}
	var err error
	if t.b, err = NewClusterBarrier(c, counts); err != nil {
		return nil, err
	}
	return t, nil
}

// teamBarrier routes each team member to its node's share of a
// ClusterBarrier.
type teamBarrier struct {
	b      *ClusterBarrier
	nodeOf []int // team index → hypernode
}

func (t teamBarrier) Wait(th *machine.Thread, tid int) { t.b.Wait(th, t.nodeOf[tid]) }
