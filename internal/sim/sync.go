package sim

// Synchronization objects in virtual time. A Proc that waits parks its
// goroutine; a signaller schedules the waiter's resumption as an event at
// the current instant (plus any modeled latency added by the caller).

// waitq is a FIFO of parked Procs.
type waitq struct {
	name    string
	waiters []*Proc
}

func (q *waitq) wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.k.blocked++
	p.park("waiting:" + q.name)
	p.k.blocked--
}

// wakeOne schedules the oldest waiter to resume at now+d.
// It reports whether a waiter existed.
func (q *waitq) wakeOne(k *Kernel, d Cycles) bool {
	if len(q.waiters) == 0 {
		return false
	}
	p := q.waiters[0]
	q.waiters = q.waiters[1:]
	p.unparkAt(k.now + d)
	return true
}

// wakeAll schedules every waiter to resume at now+d, in FIFO order.
func (q *waitq) wakeAll(k *Kernel, d Cycles) int {
	n := len(q.waiters)
	for _, p := range q.waiters {
		p.unparkAt(k.now + d)
	}
	q.waiters = q.waiters[:0]
	return n
}

// Semaphore is a counting semaphore in virtual time.
type Semaphore struct {
	k *Kernel
	n int
	q waitq
}

// NewSemaphore returns a semaphore with initial count n.
func (k *Kernel) NewSemaphore(name string, n int) *Semaphore {
	return &Semaphore{k: k, n: n, q: waitq{name: name}}
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
	s.q.wakeOne(s.k, 0)
}

// Mutex is a binary lock in virtual time.
type Mutex struct {
	k      *Kernel
	held   bool
	q      waitq
	holder *Proc
}

// NewMutex returns an unlocked mutex.
func (k *Kernel) NewMutex(name string) *Mutex {
	return &Mutex{k: k, q: waitq{name: name}}
}

// Lock acquires the mutex, parking while it is held by another Proc.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.q.wait(p)
	}
	m.held = true
	m.holder = p
}

// Unlock releases the mutex and wakes one waiter.
func (m *Mutex) Unlock() {
	m.held = false
	m.holder = nil
	m.q.wakeOne(m.k, 0)
}

// Event is a broadcast flag: Procs wait until it is set.
// Once set it stays set until Reset.
type Event struct {
	k   *Kernel
	set bool
	q   waitq
}

// NewEvent returns an unset event.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, q: waitq{name: name}}
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
	e.q.wakeAll(e.k, 0)
}

// Reset clears the event.
func (e *Event) Reset() { e.set = false }

// Queue is an unbounded FIFO of values with blocking receive, the
// simulated analogue of a channel.
type Queue struct {
	k     *Kernel
	items []interface{}
	q     waitq
}

// NewQueue returns an empty queue.
func (k *Kernel) NewQueue(name string) *Queue {
	return &Queue{k: k, q: waitq{name: name}}
}

// Put appends v and wakes one receiver.
func (q *Queue) Put(v interface{}) {
	q.items = append(q.items, v)
	q.q.wakeOne(q.k, 0)
}

// Get removes and returns the oldest value, parking while empty.
func (q *Queue) Get(p *Proc) interface{} {
	for len(q.items) == 0 {
		q.q.wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	// If more items remain, pass the wakeup along so same-instant
	// receivers drain the queue deterministically.
	if len(q.items) > 0 {
		q.q.wakeOne(q.k, 0)
	}
	return v
}

// Len reports the number of queued values.
func (q *Queue) Len() int { return len(q.items) }
