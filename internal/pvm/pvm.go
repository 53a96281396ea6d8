// Package pvm reproduces ConvexPVM, the Convex implementation of the
// Parallel Virtual Machine message-passing library on the SPP-1000
// (paper §3.1). Unlike network PVM there is a single daemon for the
// whole machine, and tasks exchange messages through shared memory
// buffers: the sender packs into a shared buffer that the receiver reads
// after the send completes, with no daemon involvement on the local
// fast path. Messages that cross hypernodes ride the SCI rings and pay a
// rendezvous cost; messages larger than two pages (8 KB) pay per-page
// buffer-management penalties — the knee in the paper's Fig. 4.
package pvm

import (
	"fmt"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// Message is one in-flight PVM message.
type Message struct {
	Src   int // sending task id
	Tag   int
	Bytes int
	// Payload carries application data by reference (the simulated
	// shared buffer); it is opaque to the library.
	Payload interface{}
}

// System is one PVM virtual machine instance.
type System struct {
	m     *machine.Machine
	tasks []*Task
}

// NewSystem creates the PVM instance for a machine.
func NewSystem(m *machine.Machine) *System {
	return &System{m: m}
}

// Task is one PVM task (a coarse-grained thread with a mailbox).
type Task struct {
	sys  *System
	id   int
	th   *machine.Thread
	mbox *sim.Queue
	// stash holds messages received but deferred by a selective Recv.
	stash []*Message
	// Stats
	Sent, Received int64
	BytesSent      int64
}

// AddTask registers a task running on th and returns it.
// Tasks must be registered before any Send targets them.
func (s *System) AddTask(th *machine.Thread) *Task {
	t := &Task{
		sys:  s,
		id:   len(s.tasks),
		th:   th,
		mbox: s.m.K.NewQueue(fmt.Sprintf("mbox%d", len(s.tasks))),
	}
	s.tasks = append(s.tasks, t)
	return t
}

// ID reports the task identifier (its "tid").
func (t *Task) ID() int { return t.id }

// Thread exposes the underlying simulated thread.
func (t *Task) Thread() *machine.Thread { return t.th }

// pages reports how many whole-or-partial pages a message occupies.
func pages(bytes int) int {
	return (bytes + topology.PageBytes - 1) / topology.PageBytes
}

// Send transmits bytes to the destination task (pack + send). The sender
// blocks for its side of the cost; delivery is scheduled at the arrival
// time, which includes ring transit for inter-hypernode messages.
func (t *Task) Send(dst int, tag int, bytes int, payload interface{}) {
	if dst < 0 || dst >= len(t.sys.tasks) {
		panic(fmt.Sprintf("pvm: send to unknown task %d", dst))
	}
	p := t.th.M.P
	target := t.sys.tasks[dst]

	// Pack into the shared buffer.
	cost := int64(float64(bytes)*p.PVMPackPerByte) + p.PVMSendFixed
	// Page-granularity buffer management beyond two pages (8 KB knee).
	if np := pages(bytes); np > 2 {
		cost += int64(np-2) * p.PVMPagePenalty
	}
	t.th.ComputeCycles(cost)

	arrive := t.th.Now()
	srcHN := t.th.CPU.Hypernode()
	dstHN := target.th.CPU.Hypernode()
	if srcHN != dstHN {
		// Rendezvous through the daemon plus ring occupancy for the
		// buffer transfer.
		t.th.ComputeCycles(p.PVMDaemonWakeup)
		ringIdx := t.th.CPU.Ring()
		if t.th.M.Mem.SingleRing {
			ringIdx = 0
		}
		arrive = t.th.M.Mem.Rings.Send(t.th.Now(), ringIdx, srcHN, dstHN, bytes)
	}

	msg := &Message{Src: t.id, Tag: tag, Bytes: bytes, Payload: payload}
	t.th.M.K.At(arrive, func() { target.mbox.Put(msg) })
	t.Sent++
	t.BytesSent += int64(bytes)
}

// Recv blocks until a message arrives, then pays the receive-side cost
// (unpack copy from the shared buffer; cross-page penalties symmetric
// with the sender's).
func (t *Task) Recv() *Message { return t.RecvFrom(-1, -1) }

// RecvFrom is the selective receive (pvm_recv): it blocks for the
// oldest message matching the source task and tag, with −1 as a
// wildcard for either. Non-matching messages are held for later
// receives in arrival order.
func (t *Task) RecvFrom(src, tag int) *Message {
	match := func(m *Message) bool {
		return (src < 0 || m.Src == src) && (tag < 0 || m.Tag == tag)
	}
	var msg *Message
	for i, m := range t.stash {
		if match(m) {
			msg = m
			t.stash = append(t.stash[:i], t.stash[i+1:]...)
			break
		}
	}
	for msg == nil {
		m := t.mbox.Get(t.th.P).(*Message)
		if match(m) {
			msg = m
		} else {
			t.stash = append(t.stash, m)
		}
	}
	p := t.th.M.P
	cost := p.PVMRecvFixed + int64(float64(msg.Bytes)*p.PVMCopyPerByte)
	if np := pages(msg.Bytes); np > 2 {
		cost += int64(np-2) * p.PVMPagePenalty
	}
	t.th.ComputeCycles(cost)
	t.Received++
	return msg
}
