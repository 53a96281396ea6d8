package threads

import (
	"strconv"
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/topology"
)

// BenchmarkBarrierEpisode measures one barrier episode of a team of 16
// (two hypernodes) or 128 (sixteen) threads, counters off: every
// thread's entry bookkeeping, semaphore RMW and spin read, then the last
// arrival's releasing write and the release fan-out. Machine
// construction is outside the timer; the team's one fork and join is
// amortized over b.N episodes.
func BenchmarkBarrierEpisode(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			m, err := machine.New(machine.Config{Hypernodes: n / topology.CPUsPerNode})
			if err != nil {
				b.Fatal(err)
			}
			bar := NewBarrier(m, n, 0)
			b.ResetTimer()
			if _, err := RunTeam(m, n, HighLocality, func(th *machine.Thread, tid int) {
				for i := 0; i < b.N; i++ {
					bar.Wait(th)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
