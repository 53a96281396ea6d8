package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"spp1000/internal/rng"
)

func TestTimeConversions(t *testing.T) {
	if got := Cycles(350).Micros(); got != 3.5 {
		t.Fatalf("(350 cycles).Micros() = %v, want 3.5", got)
	}
	if got := Cycles(1e9).Seconds(); got != 10 {
		t.Fatalf("(1e9 cycles).Seconds() = %v, want 10", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Cycles
		want string
	}{
		{50, "50cy"},
		{350, "3.50us"},
		{250000, "2.500ms"},
		{2e9, "20.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Cycles(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Cycles
	for _, at := range []Cycles{50, 10, 30, 10, 90, 0} {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 6 {
		t.Fatalf("fired %d events, want 6", len(order))
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(42, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	k := NewKernel()
	var fired Cycles = -1
	k.At(100, func() {
		k.At(10, func() { fired = k.Now() }) // in the past
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestProcDelayAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at1, at2 Cycles
	k.Spawn("p", func(p *Proc) {
		p.Delay(500)
		at1 = p.Now()
		p.Delay(250)
		at2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 500 || at2 != 750 {
		t.Fatalf("delays landed at %d,%d, want 500,750", at1, at2)
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var started Cycles
	k.SpawnAt(700, "late", func(p *Proc) { started = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 700 {
		t.Fatalf("SpawnAt started at %d, want 700", started)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		k.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10)
				log = append(log, "a")
			}
		})
		k.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Delay(10)
				log = append(log, "b")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("non-deterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("s", 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			sem.P(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Delay(100)
			inside--
			sem.V()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("semaphore admitted %d procs at once, want 1", maxInside)
	}
	if k.Now() != 400 {
		t.Fatalf("serialized critical sections should end at 400, got %d", k.Now())
	}
}

func TestSemaphoreCounting(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("s", 2)
	var done Cycles
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			sem.P(p)
			p.Delay(100)
			sem.V()
			done = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 200 {
		t.Fatalf("count-2 semaphore over 4x100cy jobs should finish at 200, got %d", done)
	}
}

func TestEventBroadcast(t *testing.T) {
	k := NewKernel()
	ev := k.NewEvent("go")
	released := make([]Cycles, 0, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			ev.Wait(p)
			released = append(released, p.Now())
		})
	}
	k.Spawn("setter", func(p *Proc) {
		p.Delay(CyclesPerMicro)
		ev.Set()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(released) != 3 {
		t.Fatalf("released %d waiters, want 3", len(released))
	}
	for _, at := range released {
		if at != 100 {
			t.Fatalf("waiter released at %d, want 100", at)
		}
	}
	if !ev.set {
		t.Fatal("event should remain set")
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q")
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(10)
			q.Put(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel()
	sem := k.NewSemaphore("never", 0)
	k.Spawn("stuck", func(p *Proc) { sem.P(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(100, func() { fired++ })
	k.At(200, func() { fired++ })
	if err := k.RunUntil(150); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("RunUntil(150) fired %d events, want 1", fired)
	}
	if k.Now() != 150 {
		t.Fatalf("clock at %d, want 150", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("final Run fired %d total, want 2", fired)
	}
}

// Property: for any batch of event times, execution order is a stable sort
// by time, and the clock is monotonically non-decreasing.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		k := NewKernel()
		type rec struct {
			at  Cycles
			idx int
		}
		var fired []rec
		for i, ut := range times {
			i, at := i, Cycles(ut)
			k.At(at, func() { fired = append(fired, rec{k.Now(), i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		var prev rec
		for i, r := range fired {
			if r.at != Cycles(times[r.idx]) {
				return false // fired at wrong time
			}
			if i > 0 {
				if r.at < prev.at {
					return false // clock went backwards
				}
				if r.at == prev.at && r.idx < prev.idx {
					return false // equal-time events out of FIFO order
				}
			}
			prev = r
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPopOrderMatchesSort drives the event heap directly with
// pushes and pops interleaved at random and many equal timestamps, and
// checks every pop against the minimum by (at, seq) of what is pending,
// which is what a reference sort of the pending events puts first.
// Sizes 0 to 300 cover every partial last group of a node's four
// children, at every depth up to five levels.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	r := rng.New(7)
	for n := 0; n <= 300; n++ {
		var h eventHeap
		var pending []event
		var seq int64
		pushed := 0
		for pushed < n || len(pending) > 0 {
			if pushed < n && (len(pending) == 0 || r.Intn(3) > 0) {
				seq++
				e := event{at: Cycles(r.Intn(n/8 + 2)), seq: seq}
				h.push(e)
				pending = append(pending, e)
				pushed++
				continue
			}
			sort.Slice(pending, func(i, j int) bool {
				if pending[i].at != pending[j].at {
					return pending[i].at < pending[j].at
				}
				return pending[i].seq < pending[j].seq
			})
			got, want := h.pop(), pending[0]
			pending = pending[1:]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("size %d: popped (at %d, seq %d), want (at %d, seq %d)", n, got.at, got.seq, want.at, want.seq)
			}
			if len(h) != len(pending) {
				t.Fatalf("size %d: heap holds %d events, want %d", n, len(h), len(pending))
			}
		}
	}
}

// Property: N procs doing random-length delay chains always finish at the
// sum of their own delays, independent of interleaving.
func TestProcIsolationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rng.New(uint64(seed))
		k := NewKernel()
		n := 2 + rnd.Intn(6)
		want := make([]Cycles, n)
		got := make([]Cycles, n)
		for i := 0; i < n; i++ {
			i := i
			steps := 1 + rnd.Intn(8)
			delays := make([]Cycles, steps)
			for j := range delays {
				delays[j] = Cycles(rnd.Intn(1000))
				want[i] += delays[j]
			}
			k.Spawn("p", func(p *Proc) {
				for _, d := range delays {
					p.Delay(d)
				}
				got[i] = p.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTotalCyclesAccounting: the process-wide cycle counter advances by
// exactly the virtual time a kernel covers, and repeated Run/RunUntil
// calls on one kernel never double-count.
func TestTotalCyclesAccounting(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {})
	k.At(250, func() {})
	before := TotalCycles()
	if err := k.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 120 {
		t.Fatalf("after RunUntil(120): accounted %d cycles, want 120", d)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 250 {
		t.Fatalf("after Run: accounted %d cycles, want 250 total", d)
	}
	// Running again with nothing scheduled adds nothing.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalCycles() - before; d != 250 {
		t.Fatalf("idle Run changed the account to %d", d)
	}
}

// TestPerKernelAccounting: EventsProcessed/CyclesRun are per-instance,
// NextEventAt peeks without executing, and the process-wide TotalEvents
// is the sum of the per-kernel counts (no double counting across
// repeated Run/RunUntil calls).
func TestPerKernelAccounting(t *testing.T) {
	k1, k2 := NewKernel(), NewKernel()
	for _, at := range []Cycles{10, 20, 30} {
		k1.At(at, func() {})
	}
	k2.At(5, func() {})

	if at, ok := k1.NextEventAt(); !ok || at != 10 {
		t.Fatalf("NextEventAt = %v,%v before running, want 10,true", at, ok)
	}
	if k1.EventsProcessed() != 0 {
		t.Fatalf("peeking executed %d events", k1.EventsProcessed())
	}

	before := TotalEvents()
	if err := k1.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if got := k1.EventsProcessed(); got != 2 {
		t.Fatalf("k1 processed %d events after RunUntil(20), want 2", got)
	}
	if got := k1.Now(); got != 20 {
		t.Fatalf("k1 CyclesRun = %v, want 20", got)
	}
	if at, ok := k1.NextEventAt(); !ok || at != 30 {
		t.Fatalf("NextEventAt = %v,%v mid-run, want 30,true", at, ok)
	}
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k1.EventsProcessed(); got != 3 {
		t.Fatalf("k1 processed %d events, want 3", got)
	}
	if got := k2.EventsProcessed(); got != 1 {
		t.Fatalf("k2 processed %d events, want 1", got)
	}
	if _, ok := k2.NextEventAt(); ok {
		t.Fatal("NextEventAt reports an event on a drained kernel")
	}
	if d := TotalEvents() - before; d != 4 {
		t.Fatalf("TotalEvents advanced by %d, want 4 (sum over kernels)", d)
	}
	// Idle re-runs account nothing further.
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	if d := TotalEvents() - before; d != 4 {
		t.Fatalf("idle Run changed the event account to %d", d)
	}
}
