package threads

import (
	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// Engine is a simulated machine an application's thread team runs on:
// the monolithic machine (NewEngine) or the hypernode-partitioned
// cluster (parsim.NewEngine). An application written against it keeps
// one runner for both engines.
type Engine interface {
	// Params is the machine's parameter set.
	Params() topology.Params
	// Topology is the whole simulated machine.
	Topology() topology.Topology
	// RunTeam forks a high-locality team of n threads from CPU 0, runs
	// the simulation to completion, and reports the fork-to-join
	// virtual duration.
	RunTeam(n int, body func(th *machine.Thread, tid int)) (sim.Cycles, error)
	// TeamBarrier allocates a barrier over the n-thread team RunTeam
	// forks.
	TeamBarrier(n int) (TeamBarrier, error)
}

// TeamBarrier is a barrier over a forked team. Wait takes the caller's
// team index, so an engine can route it to the hypernode it runs on.
type TeamBarrier interface {
	Wait(th *machine.Thread, tid int)
}

// NewEngine builds a monolithic machine of hn hypernodes.
func NewEngine(hn int) (Engine, error) {
	m, err := machine.New(machine.Config{Hypernodes: hn})
	if err != nil {
		return nil, err
	}
	return monolithic{m}, nil
}

// monolithic is one machine.Machine as an Engine and a Dispatcher:
// children spawn on its kernel and signal the join directly.
type monolithic struct{ m *machine.Machine }

func (e monolithic) Params() topology.Params { return e.m.P }

func (e monolithic) Topology() topology.Topology { return e.m.Topo }

func (e monolithic) RunTeam(n int, body func(th *machine.Thread, tid int)) (sim.Cycles, error) {
	return RunTeam(e.m, n, HighLocality, body)
}

func (e monolithic) TeamBarrier(n int) (TeamBarrier, error) {
	return teamBarrier{NewBarrier(e.m, n, 0)}, nil
}

func (e monolithic) Launch(at sim.Cycles, name string, cpu topology.CPUID, fn func(th *machine.Thread)) {
	e.m.SpawnAt(at, name, cpu, fn)
}

func (monolithic) Join(_ topology.CPUID, join *sim.Semaphore) { join.V() }

// teamBarrier is a Barrier hosted on hypernode 0, waited on by team
// index.
type teamBarrier struct{ b *Barrier }

func (t teamBarrier) Wait(th *machine.Thread, _ int) { t.b.Wait(th) }
