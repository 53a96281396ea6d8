package counters

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refGroup is one group of the map-based reference: a registry's
// absolute values with what each has published, or a sink's totals.
type refGroup struct {
	counters, cflushed map[string]int64
	hists, hflushed    map[string]HistogramValue
}

func newRefGroup() *refGroup {
	return &refGroup{
		counters: map[string]int64{}, cflushed: map[string]int64{},
		hists: map[string]HistogramValue{}, hflushed: map[string]HistogramValue{},
	}
}

// refSet is a set of named reference groups.
type refSet map[string]*refGroup

func (rs refSet) group(name string) *refGroup {
	g, ok := rs[name]
	if !ok {
		g = newRefGroup()
		rs[name] = g
	}
	return g
}

// observe is Histogram.Observe on a reference value.
func observe(h HistogramValue, v int64) HistogramValue {
	h.Count++
	h.Sum += v
	h.Max = max(h.Max, v)
	b := NumBuckets - 1
	for i := 0; i < NumBuckets-1; i++ {
		if v <= int64(1)<<i {
			b = i
			break
		}
	}
	h.Buckets[b]++
	return h
}

// publish is Publish over the reference: every nonzero delta of reg
// is added into each attached sink, then marked published.
func publish(reg refSet, sinks []refSet) {
	if len(sinks) == 0 {
		return
	}
	for name, g := range reg {
		for cn, v := range g.counters {
			if d := v - g.cflushed[cn]; d != 0 {
				for _, s := range sinks {
					s.group(name).counters[cn] += d
				}
				g.cflushed[cn] = v
			}
		}
		for hn, h := range g.hists {
			f := g.hflushed[hn]
			if h.Count == f.Count {
				continue
			}
			for _, s := range sinks {
				tot := s.group(name).hists[hn]
				tot.Count += h.Count - f.Count
				tot.Sum += h.Sum - f.Sum
				tot.Max = max(tot.Max, h.Max)
				for i := range tot.Buckets {
					tot.Buckets[i] += h.Buckets[i] - f.Buckets[i]
				}
				s.group(name).hists[hn] = tot
			}
			g.hflushed[hn] = h
		}
	}
}

// snapshot renders a reference set the way Snapshot does: sorted
// groups and entries, histogram names filled in.
func (rs refSet) snapshot() Snapshot {
	var s Snapshot
	names := make([]string, 0, len(rs))
	for name := range rs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := rs[name]
		gs := GroupSnapshot{Name: name}
		for _, cn := range sortedKeys(g.counters) {
			gs.Counters = append(gs.Counters, CounterValue{Name: cn, Value: g.counters[cn]})
		}
		for _, hn := range sortedKeys(g.hists) {
			hv := g.hists[hn]
			hv.Name = hn
			gs.Histograms = append(gs.Histograms, hv)
		}
		s.Groups = append(s.Groups, gs)
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Property: under random group, counter and histogram use by two
// registries, repeated publishes, and sinks attached and detached
// between them, each collector's snapshot — and each registry's — equals
// that of the map-based reference merge.
func TestPublishMatchesReference(t *testing.T) {
	groups := []string{"cache.hn0", "cache.hn1", "directory.hn0", "directory.hn1", "xbar.hn0", "mem", "ring", "sci", "threads"}
	names := []string{"hits", "misses", "r0.packets", "r1.packets", "forks", "joins", "upgrades"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cols := []*Collector{NewCollector(), NewCollector()}
		refCols := []refSet{{}, {}}
		attached := []bool{false, false}
		regs := []*Registry{NewRegistry(), NewRegistry()}
		refRegs := []refSet{{}, {}}
		// Short runs leave groups and entries whose deltas are all zero
		// at a publish; long ones overwrite and grow every name.
		ops := 1 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			k := rng.Intn(len(regs))
			r, ref := regs[k], refRegs[k]
			g, name := groups[rng.Intn(len(groups))], names[rng.Intn(len(names))]
			switch rng.Intn(8) {
			case 0, 1, 2:
				n := int64(rng.Intn(4)) // zero adds leave a zero delta
				r.Group(g).Counter(name).Add(n)
				ref.group(g).counters[name] += n
			case 3:
				v := int64(rng.Intn(300))
				r.Group(g).Histogram(name).Observe(v)
				ref.group(g).hists[name] = observe(ref.group(g).hists[name], v)
			case 4:
				r.Group(g)
				ref.group(g)
			case 5:
				i := rng.Intn(len(cols))
				if attached[i] {
					Detach(cols[i])
				} else {
					Attach(cols[i])
				}
				attached[i] = !attached[i]
			default:
				Publish(r)
				var sinks []refSet
				for i, on := range attached {
					if on {
						sinks = append(sinks, refCols[i])
					}
				}
				publish(ref, sinks)
			}
		}
		for i, c := range cols {
			if attached[i] {
				Detach(c)
			}
			if got, want := c.Snapshot(), refCols[i].snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: collector %d snapshot\n%s\nreference\n%s", seed, i, got.Render("got"), want.Render("want"))
			}
		}
		for k, r := range regs {
			if got, want := r.Snapshot(), refRegs[k].snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: registry %d snapshot\n%s\nreference\n%s", seed, k, got.Render("got"), want.Render("want"))
			}
		}
	}
	if Active() {
		t.Fatal("sinks left attached")
	}
}
