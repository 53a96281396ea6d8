// Package sci implements the inter-hypernode coherence layer of the
// SPP-1000: the Scalable Coherent Interface distributed linked-list
// directory (IEEE 1596), as realized by the machine's CCMC hardware
// (paper §2.5). For every globally shared cache line it maintains the
// sharing list of hypernodes holding buffered copies; the home hypernode
// holds the list head pointer. New sharers prepend at the head; a writer
// purges the whole list, walking it node by node — which is exactly the
// cost structure the paper's barrier measurements expose.
//
// Each hypernode also owns a "global cache buffer": the partition of
// functional-unit memory that holds line copies fetched from remote
// hypernodes, so repeated access from inside a hypernode is served at
// crossbar cost rather than ring cost.
package sci

import (
	"fmt"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// list is the sharing state of one line: an ordered list of hypernode
// ids, head first (most recently attached).
type list struct {
	home    int
	sharers []int // invariant: no duplicates, never contains entries >= nodes
}

// Stats counts protocol actions.
type Stats struct {
	Attaches     int64 // sharing-list insertions
	Detaches     int64 // rollouts (eviction from a buffer)
	Purges       int64 // whole-list invalidation walks
	PurgedCopies int64 // list nodes visited by purges
}

// hooks are the optional PMU-style counter handles, nil (free no-ops)
// until AttachCounters.
type hooks struct {
	attaches     *counters.Counter
	detaches     *counters.Counter
	purges       *counters.Counter
	purgedCopies *counters.Counter
	purgeWalk    *counters.Histogram
}

// Protocol is the global SCI coherence state for one machine.
type Protocol struct {
	nodes int
	lines map[topology.LineKey]*list
	// buffers[hn] is the set of remote lines currently held in
	// hypernode hn's global cache buffer.
	buffers []map[topology.LineKey]bool
	Stats   Stats
	ctr     hooks
}

// AttachCounters mirrors the protocol actions into the group: attaches,
// detaches, purges, purged_copies, and the purge_walk histogram of
// sharing-list nodes visited per purge — the serialized walk length that
// dominates the paper's cross-hypernode barrier cost. A nil group
// detaches.
func (p *Protocol) AttachCounters(g *counters.Group) {
	p.ctr = hooks{
		attaches:     g.Counter("attaches"),
		detaches:     g.Counter("detaches"),
		purges:       g.Counter("purges"),
		purgedCopies: g.Counter("purged_copies"),
		purgeWalk:    g.Histogram("purge_walk"),
	}
}

// New returns the protocol state for a machine with n hypernodes.
func New(n int) *Protocol {
	p := &Protocol{
		nodes:   n,
		lines:   make(map[topology.LineKey]*list),
		buffers: make([]map[topology.LineKey]bool, n),
	}
	for i := range p.buffers {
		p.buffers[i] = make(map[topology.LineKey]bool)
	}
	return p
}

// InBuffer reports whether hypernode hn holds a buffered copy of the line.
func (p *Protocol) InBuffer(hn int, key topology.LineKey) bool {
	return p.buffers[hn][key]
}

// Attach records that hypernode hn fetched the line from its home and
// now buffers a copy. It returns the position at which hn entered the
// list (0 = head; SCI prepends, so this is always 0 for a new sharer).
// Attaching an existing sharer is a no-op returning its position.
func (p *Protocol) Attach(key topology.LineKey, home, hn int) int {
	p.check(home)
	p.check(hn)
	if hn == home {
		return -1 // the home does not buffer its own lines
	}
	l, ok := p.lines[key]
	if !ok {
		l = &list{home: home}
		p.lines[key] = l
	}
	for i, s := range l.sharers {
		if s == hn {
			return i
		}
	}
	l.sharers = append([]int{hn}, l.sharers...)
	p.buffers[hn][key] = true
	p.Stats.Attaches++
	p.ctr.attaches.Inc()
	return 0
}

// Detach removes hypernode hn from the sharing list (a buffer rollout).
// SCI rollout requires patching the neighbours' pointers; the caller
// charges the corresponding ring transactions. It reports whether hn
// was present.
func (p *Protocol) Detach(key topology.LineKey, hn int) bool {
	l, ok := p.lines[key]
	if !ok {
		return false
	}
	for i, s := range l.sharers {
		if s == hn {
			l.sharers = append(l.sharers[:i], l.sharers[i+1:]...)
			delete(p.buffers[hn], key)
			p.Stats.Detaches++
			p.ctr.detaches.Inc()
			if len(l.sharers) == 0 {
				delete(p.lines, key)
			}
			return true
		}
	}
	return false
}

// Purge invalidates every buffered copy of the line: the writer walks the
// sharing list from the head, invalidating one node at a time. It returns
// the hypernodes visited, in walk order; the caller charges one list-visit
// plus ring transit per entry and drops the victims' buffered copies.
func (p *Protocol) Purge(key topology.LineKey) []int {
	l, ok := p.lines[key]
	if !ok {
		return nil
	}
	victims := make([]int, len(l.sharers))
	copy(victims, l.sharers)
	for _, hn := range victims {
		delete(p.buffers[hn], key)
	}
	delete(p.lines, key)
	p.Stats.Purges++
	p.Stats.PurgedCopies += int64(len(victims))
	p.ctr.purges.Inc()
	p.ctr.purgedCopies.Add(int64(len(victims)))
	p.ctr.purgeWalk.Observe(int64(len(victims)))
	return victims
}

// PurgeExcept is Purge but keeps hypernode keep as the sole sharer
// (the writer's own hypernode retains its — now exclusive — copy).
func (p *Protocol) PurgeExcept(key topology.LineKey, keep int) []int {
	l, ok := p.lines[key]
	if !ok {
		return nil
	}
	var victims []int
	kept := false
	for _, hn := range l.sharers {
		if hn == keep {
			kept = true
			continue
		}
		victims = append(victims, hn)
		delete(p.buffers[hn], key)
	}
	if kept {
		l.sharers = []int{keep}
	} else {
		delete(p.lines, key)
	}
	p.Stats.Purges++
	p.Stats.PurgedCopies += int64(len(victims))
	p.ctr.purges.Inc()
	p.ctr.purgedCopies.Add(int64(len(victims)))
	p.ctr.purgeWalk.Observe(int64(len(victims)))
	return victims
}

func (p *Protocol) check(hn int) {
	if hn < 0 || hn >= p.nodes {
		panic(fmt.Sprintf("sci: hypernode %d out of range [0,%d)", hn, p.nodes))
	}
}

// CheckInvariants validates protocol consistency: no duplicate sharers,
// the home never appears in its own list, and the buffer sets mirror the
// lists exactly.
//
//simlint:allow deadexport invariant oracle the memsys coherence property test drives across packages
func (p *Protocol) CheckInvariants() error {
	// Every list entry must have a buffered copy.
	//simlint:allow determinism any one violation suffices; the walk never touches simulator state or rendered output
	for key, l := range p.lines {
		seen := map[int]bool{}
		if len(l.sharers) == 0 {
			return fmt.Errorf("line %v: empty sharing list should be deleted", key)
		}
		for _, hn := range l.sharers {
			if hn == l.home {
				return fmt.Errorf("line %v: home hn%d appears in its own sharing list", key, hn)
			}
			if seen[hn] {
				return fmt.Errorf("line %v: duplicate sharer hn%d", key, hn)
			}
			seen[hn] = true
			if !p.buffers[hn][key] {
				return fmt.Errorf("line %v: sharer hn%d has no buffered copy", key, hn)
			}
		}
	}
	// Every buffered copy must be on a list.
	for hn, buf := range p.buffers {
		//simlint:allow determinism any one violation suffices; the walk never touches simulator state or rendered output
		for key := range buf {
			l, ok := p.lines[key]
			if !ok {
				return fmt.Errorf("hn%d buffers %v with no sharing list", hn, key)
			}
			found := false
			for _, s := range l.sharers {
				if s == hn {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("hn%d buffers %v but is not on its list", hn, key)
			}
		}
	}
	return nil
}
