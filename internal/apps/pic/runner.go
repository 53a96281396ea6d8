package pic

import (
	"fmt"

	"spp1000/internal/c90"
	"spp1000/internal/machine"
	"spp1000/internal/parsim"
	"spp1000/internal/perfmodel"
	"spp1000/internal/pvm"
	"spp1000/internal/threads"
	"spp1000/internal/topology"
)

// Result summarizes one timed PIC run on the simulated machine.
type Result struct {
	Size    Size
	Procs   int
	Steps   int
	Variant string // "shared" or "pvm"
	Seconds float64
	Mflops  float64
}

// RunShared times the shared-memory PIC variant: particle arrays
// block-partitioned over threads, grids far-shared, the field solve
// parallelized across threads, four barriers per step.
func RunShared(size Size, procs, steps int) (Result, error) {
	return runShared(threads.NewEngine, "shared", size, procs, steps)
}

// RunSharedPar is RunShared on the hypernode-partitioned (PDES) engine:
// the same four-phase step structure and work model, but the machine is
// built as one share-nothing kernel per hypernode (internal/parsim), so
// large configurations — up to the full 128-CPU machine the paper's
// authors did not have — can execute on concurrent host goroutines.
// Output is byte-identical at every parsim worker count; it is a
// different (coarser-synchronization) machine model than RunShared's
// monolithic coherence replay, so its absolute times are compared
// within the partitioned family, not against RunShared.
func RunSharedPar(size Size, procs, steps int) (Result, error) {
	return runShared(parsim.NewEngine, "shared-pdes", size, procs, steps)
}

// runShared is the shared variant's one step loop, on the engine that
// newEngine builds just large enough for the team (the paper used a
// two-hypernode, 16-CPU system).
func runShared(newEngine func(hn int) (threads.Engine, error), variant string, size Size, procs, steps int) (Result, error) {
	hn := topology.HypernodesFor(procs)
	e, err := newEngine(hn)
	if err != nil {
		return Result{}, err
	}
	p := e.Params()
	model := NewModel(size, procs, hn, false)
	deposit := perfmodel.Cycles(p, model.DepositChunk())
	reduce := perfmodel.Cycles(p, model.ReduceChunk())
	solve := perfmodel.Cycles(p, model.SolveChunk(false))
	gather := perfmodel.Cycles(p, model.GatherPushChunk())

	bar, err := e.TeamBarrier(procs)
	if err != nil {
		return Result{}, err
	}
	elapsed, err := e.RunTeam(procs, func(th *machine.Thread, tid int) {
		for step := 0; step < steps; step++ {
			th.ComputeCycles(deposit)
			bar.Wait(th, tid)
			th.ComputeCycles(reduce)
			bar.Wait(th, tid)
			th.ComputeCycles(solve)
			bar.Wait(th, tid)
			th.ComputeCycles(gather)
			bar.Wait(th, tid)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := model.FlopsPerStep() * int64(steps)
	return Result{
		Size: size, Procs: procs, Steps: steps, Variant: variant,
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}, nil
}

// RunPVM times the message-passing variant the paper ported: particle
// arrays partitioned over tasks, grids replicated per task in private
// memory, the density all-reduced to task 0, the field solved there, and
// the three field components broadcast back — all through ConvexPVM.
func RunPVM(size Size, procs, steps int) (Result, error) {
	hn := topology.HypernodesFor(procs)
	m, err := machine.New(machine.Config{Hypernodes: hn})
	if err != nil {
		return Result{}, err
	}
	model := NewModel(size, procs, hn, true)
	deposit := perfmodel.Cycles(m.P, model.DepositChunk())
	reduceAll := perfmodel.Cycles(m.P, model.ReduceChunk()) * int64(procs) // task 0 reduces serially
	solve := perfmodel.Cycles(m.P, model.SolveChunk(true))
	gather := perfmodel.Cycles(m.P, model.GatherPushChunk())
	gridBytes := size.Cells() * wordBytes

	sys := pvm.NewSystem(m)
	tasks := make([]*pvm.Task, procs)
	registered := m.K.NewSemaphore("registered", 0)
	allReady := m.K.NewEvent("allReady")

	var res Result
	elapsed, err := threads.RunTeam(m, procs, threads.HighLocality, func(th *machine.Thread, tid int) {
		tasks[tid] = sys.AddTask(th)
		registered.V()
		if tid == 0 {
			for i := 0; i < procs; i++ {
				registered.P(th.P)
			}
			allReady.Set()
		} else {
			allReady.Wait(th.P)
		}
		for step := 0; step < steps; step++ {
			th.ComputeCycles(deposit)
			if tid == 0 {
				// Gather partials, reduce, solve, broadcast fields.
				for i := 1; i < procs; i++ {
					tasks[0].Recv()
				}
				th.ComputeCycles(reduceAll)
				th.ComputeCycles(solve)
				for i := 1; i < procs; i++ {
					for f := 0; f < 3; f++ {
						tasks[0].Send(i, 100+f, gridBytes)
					}
				}
			} else {
				tasks[tid].Send(0, 1, gridBytes)
				for f := 0; f < 3; f++ {
					tasks[tid].Recv()
				}
			}
			th.ComputeCycles(gather)
		}
	})
	if err != nil {
		return Result{}, err
	}
	sec := elapsed.Seconds()
	fl := model.FlopsPerStep() * int64(steps)
	res = Result{
		Size: size, Procs: procs, Steps: steps, Variant: "pvm",
		Seconds: sec, Mflops: float64(fl) / sec / 1e6,
	}
	return res, nil
}

// C90Reference reports the single-head C90 time and rate for the run
// (the flat reference lines of Fig. 6 and the rows of Table 1).
func C90Reference(size Size, steps int) (seconds, mflops float64) {
	model := NewModel(size, 1, 1, false)
	fl := model.FlopsPerStep() * int64(steps)
	cray := c90.Default()
	rate := cray.Rate(c90.PIC)
	return float64(fl) / (rate * 1e6), rate
}

func (r Result) String() string {
	return fmt.Sprintf("pic %v %s p=%d: %.1f s, %.1f Mflop/s", r.Size, r.Variant, r.Procs, r.Seconds, r.Mflops)
}
