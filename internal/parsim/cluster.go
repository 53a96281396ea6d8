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
// messages. That structure is what makes the partitions safe to run on
// concurrent host goroutines with byte-identical output at any worker
// count: within a window no partition can observe another.
type Cluster struct {
	// Coord drives the partitions (Coordinator.Run is called by Run).
	Coord *Coordinator
	// Nodes are the per-hypernode machines, index = global hypernode.
	Nodes []*ClusterNode
	// Topo is the whole simulated machine (placement, CPU numbering,
	// ring hop counts); each node's own machine is a 1-hypernode slice.
	Topo topology.Topology
	// P is the shared parameter set.
	P topology.Params
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
	c := &Cluster{Topo: topo, P: p}
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

// RunTeam forks a team of n threads across the cluster under the
// high-locality placement, runs the partitioned simulation to
// completion, and reports the fork-to-join virtual duration observed by
// the parent on hypernode 0 — the partitioned analogue of
// threads.RunTeam. The dispatch mirrors threads.ForkJoin's cost
// arithmetic: a one-time remote-runtime initialization the first time
// the fork crosses a hypernode, a local or remote spawn cost per child
// (the child begins on its node's kernel at the dispatch-complete
// instant, carried across the partition boundary as a message — legal
// because ThreadSpawnRemote far exceeds the lookahead), a child-side
// start cost, and a per-thread reap cost at join. Remote children send
// their completion back as a message one lookahead after finishing (the
// minimum ring crossing — and the exact window horizon, exercising the
// half-open boundary on every run). When the team saturates the whole
// machine, thread 0 pays the OS-intrusion slowdown, as in ForkJoin.
func (c *Cluster) RunTeam(n int, body func(th *machine.Thread, tid int)) (sim.Cycles, error) {
	if n < 1 {
		return 0, fmt.Errorf("parsim: team size must be >= 1, got %d", n)
	}
	if n > c.Topo.NumCPUs() {
		return 0, fmt.Errorf("parsim: team of %d exceeds the machine's %d CPUs", n, c.Topo.NumCPUs())
	}
	p := c.P
	root := c.Nodes[0]
	done := root.M.K.NewSemaphore("join", 0)
	saturated := n >= c.Topo.NumCPUs()
	look := sim.Cycles(p.InterNodeLookahead())

	var elapsed sim.Cycles
	root.M.Spawn("main", topology.MakeCPU(0, 0, 0), func(parent *machine.Thread) {
		start := parent.Now()
		crossed := false
		for tid := 0; tid < n; tid++ {
			cpu := threads.CPUFor(c.Topo, threads.HighLocality, tid, n)
			node, local := c.NodeFor(cpu)
			remote := cpu.Hypernode() != 0
			if remote && !crossed {
				crossed = true
				parent.Delay(sim.Cycles(p.RemoteRuntimeInit))
			}
			spawn := p.ThreadSpawnLocal
			if remote {
				spawn = p.ThreadSpawnRemote
			}
			tid := tid
			startAt := parent.Now() + sim.Cycles(spawn)
			slow := saturated && tid == 0
			launch := func() {
				child := node.M.SpawnAt(startAt, fmt.Sprintf("t%d", tid), local, func(th *machine.Thread) {
					th.Delay(sim.Cycles(p.ThreadStart))
					body(th, tid)
					if node == root {
						done.V()
					} else {
						node.Part.Post(0, th.Now()+look, func() { done.V() })
					}
				})
				if slow {
					child.SetSlowdown(p.OSIntrusion)
				}
			}
			if node == root {
				launch()
			} else {
				root.Part.Post(cpu.Hypernode(), startAt, launch)
			}
			parent.Delay(sim.Cycles(spawn))
		}
		for i := 0; i < n; i++ {
			done.P(parent.P)
		}
		parent.Delay(sim.Cycles(int64(n) * p.JoinPerThread))
		elapsed = parent.Now() - start
	})
	if err := c.Run(); err != nil {
		return 0, err
	}
	return elapsed, nil
}
