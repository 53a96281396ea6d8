package pvm

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting it also deletes its 5 dedicated tests (queued on ROADMAP)

import "fmt"

// Group is a PVM task group (pvm_joingroup and the group collectives).
// Collective operations are built from point-to-point messages through
// the group's rank-0 task, as PVM 3 implemented them.
type Group struct {
	name  string
	tasks []*Task
}

// NewGroup forms a group from the given tasks; index = group rank.
func NewGroup(name string, tasks []*Task) (*Group, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("pvm: empty group %q", name)
	}
	return &Group{name: name, tasks: tasks}, nil
}

// Size reports the member count (pvm_gsize).
func (g *Group) Size() int { return len(g.tasks) }

// Rank reports the group rank of a task (pvm_getinst), or -1.
func (g *Group) Rank(t *Task) int {
	for i, m := range g.tasks {
		if m == t {
			return i
		}
	}
	return -1
}

// Collective message tags (reserved range).
const (
	tagBarrier = -100 + iota
	tagBcast
	tagReduce
)

// Barrier blocks the calling member until all members arrive
// (pvm_barrier): everyone reports to rank 0, rank 0 releases everyone.
// Must be called by every member exactly once per episode.
func (g *Group) Barrier(me *Task) {
	rank := g.Rank(me)
	if rank < 0 {
		panic(fmt.Sprintf("pvm: task %d not in group %q", me.ID(), g.name))
	}
	if g.Size() == 1 {
		return
	}
	if rank == 0 {
		for i := 1; i < g.Size(); i++ {
			me.RecvFrom(-1, tagBarrier)
		}
		for i := 1; i < g.Size(); i++ {
			me.Send(g.tasks[i].ID(), tagBarrier, 8, nil)
		}
	} else {
		me.Send(g.tasks[0].ID(), tagBarrier, 8, nil)
		me.RecvFrom(g.tasks[0].ID(), tagBarrier)
	}
}

// Bcast distributes data from the group root (rank 0) to every member
// (pvm_bcast); members pass their own buffer pointer and receive the
// root's payload back.
func (g *Group) Bcast(me *Task, data []float64) []float64 {
	rank := g.Rank(me)
	if rank < 0 {
		panic(fmt.Sprintf("pvm: task %d not in group %q", me.ID(), g.name))
	}
	if g.Size() == 1 {
		return data
	}
	if rank == 0 {
		for i := 1; i < g.Size(); i++ {
			me.Send(g.tasks[i].ID(), tagBcast, 8*len(data), data)
		}
		return data
	}
	msg := me.RecvFrom(g.tasks[0].ID(), tagBcast)
	return msg.Payload.([]float64)
}

// ReduceSum element-wise sums every member's vector at rank 0 and
// returns the result to all (pvm_reduce with PvmSum followed by a
// broadcast). All contributions must have equal length.
func (g *Group) ReduceSum(me *Task, data []float64) []float64 {
	rank := g.Rank(me)
	if rank < 0 {
		panic(fmt.Sprintf("pvm: task %d not in group %q", me.ID(), g.name))
	}
	if g.Size() == 1 {
		return data
	}
	if rank == 0 {
		acc := append([]float64(nil), data...)
		for i := 1; i < g.Size(); i++ {
			msg := me.RecvFrom(-1, tagReduce)
			v := msg.Payload.([]float64)
			if len(v) != len(acc) {
				panic(fmt.Sprintf("pvm: reduce length mismatch: %d vs %d", len(v), len(acc)))
			}
			// The reduction arithmetic costs one add per element.
			me.Thread().ComputeCycles(int64(len(v)))
			for j := range acc {
				acc[j] += v[j]
			}
		}
		for i := 1; i < g.Size(); i++ {
			me.Send(g.tasks[i].ID(), tagBcast, 8*len(acc), acc)
		}
		return acc
	}
	me.Send(g.tasks[0].ID(), tagReduce, 8*len(data), data)
	msg := me.RecvFrom(g.tasks[0].ID(), tagBcast)
	return msg.Payload.([]float64)
}
