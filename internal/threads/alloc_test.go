package threads

import (
	"math"
	"testing"

	"spp1000/internal/machine"
)

// teamAllocs reports the heap allocations of one run that builds a
// 2-hypernode machine, forks a team of n threads and passes a barrier
// episodes times (counters off).
func teamAllocs(t *testing.T, n, episodes int) float64 {
	t.Helper()
	return testing.AllocsPerRun(1, func() {
		m, err := machine.New(machine.Config{Hypernodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		b := NewBarrier(m, n, 0)
		if _, err := RunTeam(m, n, HighLocality, func(th *machine.Thread, tid int) {
			for i := 0; i < episodes; i++ {
				b.Wait(th)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBarrierEpisodeZeroAllocs pins the barrier's steady state: once
// warm-up episodes have sized the waiter list, the event heap, every
// thread's spin semaphore and write report, and the coherence scratch,
// a 16-thread episode allocates nothing. Two runs that differ only in
// their episode count are compared, and the difference is averaged per
// episode and rounded to whole allocations. What rounds away is
// amortized slice growth of the global cache buffer's FIFO, which
// gains an entry each time a remote hypernode refetches the spin
// variable, and one-off set-up allocations that can differ between the
// runs (the race detector's sync.Pool drops some puts).
func TestBarrierEpisodeZeroAllocs(t *testing.T) {
	const n, warmup, extra = 16, 32, 64
	warm := teamAllocs(t, n, warmup)
	more := teamAllocs(t, n, warmup+extra)
	if per := int(math.Round((more - warm) / extra)); per != 0 {
		t.Errorf("a warm %d-thread barrier episode allocates %d, want 0 (%v allocs with %d episodes, %v with %d)",
			n, per, warm, warmup, more, warmup+extra)
	}
}
