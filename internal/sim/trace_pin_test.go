package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"spp1000/internal/rng"
)

// traceProgram runs one seeded random program and returns its resume
// trace: one line per Proc resume and per At callback, each
// "now name seq", where seq is the kernel's scheduling counter at that
// moment. The program spawns several procs that draw random operations
// from their own streams: delays (negative and zero included), a
// semaphore critical section, Gets on a shared queue fed by At
// callbacks, waits on events set by At callbacks, and children spawned
// from callbacks. Every Get and Wait schedules the callback that
// releases it, so a program always completes.
//
// With step 0 the kernel drains through Run. Otherwise it advances
// through RunUntil windows of step cycles until no event is pending and
// then calls Run. No event lies inside a window's idle tail, so the
// trace must be the same as Run's. Only the final clock may differ,
// since RunUntil leaves it at its last window's end, so it is returned
// apart from the trace.
func traceProgram(seed uint64, step Cycles) (trace []string, end Cycles) {
	k := NewKernel()
	record := func(name string) {
		trace = append(trace, fmt.Sprintf("%d %s %d", k.Now(), name, k.seq))
	}
	top := rng.New(seed)
	sem := k.NewSemaphore("sem", 1+top.Intn(2))
	q := k.NewQueue("queue")
	events := make([]*Event, 3)
	for i := range events {
		events[i] = k.NewEvent("event")
	}
	var body func(r *rng.RNG, ops int) func(p *Proc)
	body = func(r *rng.RNG, ops int) func(p *Proc) {
		return func(p *Proc) {
			record(p.Name())
			for i := 0; i < ops; i++ {
				switch r.Intn(7) {
				case 0:
					p.Delay(Cycles(r.Intn(30) - 3))
				case 1:
					p.Delay(0)
				case 2:
					sem.P(p)
					record(p.Name())
					p.Delay(Cycles(r.Intn(12)))
					sem.V()
				case 3:
					v := r.Intn(100)
					k.After(Cycles(r.Intn(20)), func() {
						record("put")
						q.Put(v)
					})
					q.Get(p)
				case 4:
					e := events[r.Intn(len(events))]
					k.After(Cycles(r.Intn(40)), func() {
						record("set")
						e.Set()
					})
					e.Wait(p)
				case 5:
					name := fmt.Sprintf("%s.%d", p.Name(), i)
					child := rng.New(r.Uint64())
					k.At(p.Now()+Cycles(r.Intn(15)), func() {
						record("spawn")
						k.Spawn(name, body(child, 1+child.Intn(4)))
					})
					p.Delay(Cycles(r.Intn(5)))
				case 6:
					q.Put(r.Intn(100))
					p.Delay(Cycles(r.Intn(8)))
				}
				record(p.Name())
			}
		}
	}
	for i, n := 0, 3+top.Intn(4); i < n; i++ {
		r := rng.New(top.Uint64())
		k.SpawnAt(Cycles(top.Intn(10)), fmt.Sprintf("p%d", i), body(r, 10+r.Intn(30)))
	}
	if step > 0 {
		for {
			if _, ok := k.NextEventAt(); !ok {
				break
			}
			if err := k.RunUntil(k.Now() + step); err != nil {
				trace = append(trace, "error "+err.Error())
			}
		}
	}
	if err := k.Run(); err != nil {
		trace = append(trace, "error "+err.Error())
	}
	trace = append(trace, fmt.Sprintf("events %d live %d", k.EventsProcessed(), k.live))
	return trace, k.Now()
}

// TestKernelTracePinned pins the kernel's resume order: for each seed,
// the digest of the random program's trace (traceProgram) under Run,
// and the same trace under RunUntil windows of several widths. Any
// change to pop order, tie-breaking, clock advance, seq numbering or
// wake-up order in the semaphore, event and queue changes a digest.
// The digests were recorded on the push/pop event loop; a kernel
// refactor or fast path must reproduce them exactly.
func TestKernelTracePinned(t *testing.T) {
	want := map[uint64]string{
		1: "273702847798557a",
		2: "3adfeb37f4acc75b",
		3: "6448460791955414",
		4: "28afe4cec1b34ce1",
		5: "2cd2e159a03a1374",
		6: "0f5c7fd5096873ce",
		7: "d29e0b729d2fd43f",
		8: "412256f5e371cf39",
	}
	for seed := uint64(1); seed <= uint64(len(want)); seed++ {
		ref, end := traceProgram(seed, 0)
		h := sha256.New()
		for _, line := range ref {
			fmt.Fprintln(h, line)
		}
		fmt.Fprintln(h, "end", end)
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want[seed] {
			t.Errorf("seed %d: trace digest %s (%d lines), want %s", seed, got, len(ref), want[seed])
		}
		for _, step := range []Cycles{1, 7, 50} {
			got, _ := traceProgram(seed, step)
			if len(got) != len(ref) {
				t.Errorf("seed %d, RunUntil step %d: %d trace lines, Run gives %d", seed, step, len(got), len(ref))
				continue
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Errorf("seed %d, RunUntil step %d: line %d is %q, Run gives %q", seed, step, i, got[i], ref[i])
					break
				}
			}
		}
	}
}
