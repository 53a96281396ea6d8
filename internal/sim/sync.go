package sim

// Synchronization objects in virtual time. A Proc that waits parks; a
// signaller schedules the waiter's resumption as an event at the current
// instant (any modeled latency is the caller's to add). Object names
// label the model for its reader; the kernel keeps none.

// waitq is a FIFO of parked Procs.
type waitq struct {
	waiters []*Proc
}

func (q *waitq) wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.park()
}

// wakeOne schedules the oldest waiter, if any, to resume now.
func (q *waitq) wakeOne() {
	if len(q.waiters) == 0 {
		return
	}
	p := q.waiters[0]
	// Shift down rather than reslice from the front, so the backing
	// array keeps its capacity and the next wait appends in place.
	n := copy(q.waiters, q.waiters[1:])
	q.waiters[n] = nil
	q.waiters = q.waiters[:n]
	p.unpark()
}

// wakeAll schedules every waiter to resume now, in FIFO order.
func (q *waitq) wakeAll() {
	for _, p := range q.waiters {
		p.unpark()
	}
	q.waiters = q.waiters[:0]
}

// Semaphore is a counting semaphore in virtual time.
type Semaphore struct {
	n int
	q waitq
}

// NewSemaphore returns a semaphore with initial count n.
func (k *Kernel) NewSemaphore(name string, n int) *Semaphore {
	return &Semaphore{n: n}
}

// P decrements the semaphore, parking the Proc while the count is zero.
func (s *Semaphore) P(p *Proc) {
	for s.n == 0 {
		s.q.wait(p)
	}
	s.n--
}

// V increments the semaphore and wakes one waiter, if any.
func (s *Semaphore) V() {
	s.n++
	s.q.wakeOne()
}

// Event is a broadcast flag: Procs wait until it is set.
// Once set it stays set.
type Event struct {
	set bool
	q   waitq
}

// NewEvent returns an unset event.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{}
}

// Wait parks until the event is set.
func (e *Event) Wait(p *Proc) {
	for !e.set {
		e.q.wait(p)
	}
}

// Set sets the event and wakes all waiters.
func (e *Event) Set() {
	e.set = true
	e.q.wakeAll()
}

// Queue is an unbounded FIFO of values with blocking receive, the
// simulated analogue of a channel.
type Queue struct {
	items []interface{}
	q     waitq
}

// NewQueue returns an empty queue.
func (k *Kernel) NewQueue(name string) *Queue {
	return &Queue{}
}

// Put appends v and wakes one receiver.
func (q *Queue) Put(v interface{}) {
	q.items = append(q.items, v)
	q.q.wakeOne()
}

// Get removes and returns the oldest value, parking while empty.
func (q *Queue) Get(p *Proc) interface{} {
	for len(q.items) == 0 {
		q.q.wait(p)
	}
	v := q.items[0]
	n := copy(q.items, q.items[1:])
	q.items[n] = nil
	q.items = q.items[:n]
	// If more items remain, pass the wakeup along so same-instant
	// receivers drain the queue deterministically.
	if len(q.items) > 0 {
		q.q.wakeOne()
	}
	return v
}
