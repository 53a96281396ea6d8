package memsys

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"spp1000/internal/counters"
	"spp1000/internal/rng"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// pinSetting is one machine configuration the pinned trace covers.
type pinSetting struct {
	name     string
	noBuffer bool // DisableGlobalBuffer
	oneRing  bool // SingleRing, with an 8-line global buffer
}

var pinSettings = []pinSetting{
	{name: "default"},
	{name: "nobuffer", noBuffer: true},
	{name: "singlering", oneRing: true},
}

// newPinSystem builds the machine the random workload runs on: hn
// hypernodes, 64-line caches, the setting's ablations, and every
// component's counters attached to r.
func newPinSystem(t *testing.T, hn int, set pinSetting, r *counters.Registry) *System {
	t.Helper()
	topo, err := topology.New(hn)
	if err != nil {
		t.Fatal(err)
	}
	s := New(topo, topology.DefaultParams(), 64)
	s.DisableGlobalBuffer = set.noBuffer
	if set.oneRing {
		s.SingleRing = true
		s.bufferCap = 8
	}
	s.AttachCountersBase(r, 0)
	return s
}

// playRandom issues about 2000 operations from random CPUs at a slowly
// advancing clock: uncached read-modify-writes (1 in 12) and cached
// accesses, a third of them writes, over 64 lines spread across eight
// pages of four spaces (NearShared on hn0 and on hn1, FarShared,
// BlockShared), so every home, miss class and coherence action occurs.
// visit sees each operation's completion time and, for cached accesses,
// the CPUs it invalidated.
func playRandom(s *System, seed uint64, visit func(done sim.Cycles, inv []Invalidation)) {
	rnd := rng.New(seed)
	spaces := []topology.Space{
		s.Alloc("near0", topology.NearShared, 0, 0),
		s.Alloc("near1", topology.NearShared, 1, 0),
		s.Alloc("far", topology.FarShared, 0, 0),
		s.Alloc("block", topology.BlockShared, 0, 4*topology.CacheLineBytes),
	}
	now := sim.Cycles(0)
	for i := 0; i < 2000; i++ {
		cpu := topology.CPUID(rnd.Intn(s.Topo.NumCPUs()))
		sp := spaces[rnd.Intn(len(spaces))]
		l := rnd.Intn(64)
		addr := topology.Addr(l/8*topology.PageBytes + l%8*topology.CacheLineBytes)
		if rnd.Intn(12) == 0 {
			visit(s.UncachedRMW(now, cpu, sp, addr), nil)
		} else {
			rep := s.Access(now, cpu, sp, addr, rnd.Intn(3) == 0)
			visit(rep.Done, rep.Invalidated)
		}
		now += sim.Cycles(rnd.Intn(200))
	}
}

// pinnedTraces are the digests of the random workload as the memory
// system played it before its fill paths were restructured. A change
// that moves any of them changed simulated behaviour. The nobuffer
// digests include the local coherence work recordLocal plays for a
// global fill, which only that ablation gives any.
var pinnedTraces = map[string]string{
	"hn2/seed1/default":    "68db1996a3f7786c",
	"hn2/seed1/nobuffer":   "0e53268010b27ccd",
	"hn2/seed1/singlering": "d8c2d5f5f6230d6d",
	"hn2/seed2/default":    "53fa1efb8e9a4caf",
	"hn2/seed2/nobuffer":   "24ed9cda00efa122",
	"hn2/seed2/singlering": "907798774f18c8f8",
	"hn2/seed3/default":    "f8c6da2fce950bff",
	"hn2/seed3/nobuffer":   "94ba573ca7f91984",
	"hn2/seed3/singlering": "67a43e18383342fc",
	"hn4/seed1/default":    "541428de7bac6602",
	"hn4/seed1/nobuffer":   "83fd3518af21dace",
	"hn4/seed1/singlering": "7cd80d38490f280a",
	"hn4/seed2/default":    "8ed245c89c002604",
	"hn4/seed2/nobuffer":   "64b787a969903ebb",
	"hn4/seed2/singlering": "f73861bf02ee2113",
	"hn4/seed3/default":    "8b4263b5d0f3b5ce",
	"hn4/seed3/nobuffer":   "7932162feb7a2d23",
	"hn4/seed3/singlering": "7a32c24106121c06",
}

// TestAccessTracePinned hashes everything a caller of the memory system
// can observe on the random workload — each operation's completion
// time, each access's invalidated CPUs at the latest instant per CPU
// (what a barrier's spin release reads), the final machine-wide tally
// without InvalsReceived, and the rendered PMU counters — and compares
// it with the digest recorded for that configuration.
func TestAccessTracePinned(t *testing.T) {
	for _, hn := range []int{2, 4} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, set := range pinSettings {
				name := fmt.Sprintf("hn%d/seed%d/%s", hn, seed, set.name)
				r := counters.NewRegistry()
				s := newPinSystem(t, hn, set, r)
				h := sha256.New()
				playRandom(s, seed, func(done sim.Cycles, inv []Invalidation) {
					latest := map[topology.CPUID]sim.Cycles{}
					for _, x := range inv {
						latest[x.CPU] = max(latest[x.CPU], x.At)
					}
					cpus := make([]int, 0, len(latest))
					for c := range latest {
						cpus = append(cpus, int(c))
					}
					sort.Ints(cpus)
					fmt.Fprintf(h, "%d:", done)
					for _, c := range cpus {
						fmt.Fprintf(h, " %d@%d", c, latest[topology.CPUID(c)])
					}
					fmt.Fprintln(h)
				})
				c := s.TotalCounters()
				fmt.Fprintf(h, "%d %d %d %d %d %d\n", c.Accesses, c.Hits, c.LocalMisses, c.HypernodeMisses, c.GlobalMisses, c.StallCycles)
				fmt.Fprint(h, r.Snapshot().Render("pin"))
				got := fmt.Sprintf("%x", h.Sum(nil))[:16]
				if want := pinnedTraces[name]; got != want {
					t.Errorf("%s: trace digest %s, want %s", name, got, want)
				}
			}
		}
	}
}
