// Package directory implements the intra-hypernode cache-coherence
// directory of the SPP-1000: a direct-mapped, DASH-like tag store that
// records, for every memory line cached inside the hypernode, which of
// the eight local processors hold copies and which (at most one) holds
// it dirty (paper §2.4).
package directory

import (
	"fmt"

	"spp1000/internal/counters"
	"spp1000/internal/topology"
)

// entry is the directory state for one line.
type entry struct {
	presence uint8 // bit per local CPU (0..7)
	owner    int8  // local CPU holding the line dirty, or -1
}

// hooks are the optional PMU-style counter handles, nil (free no-ops)
// until AttachCounters.
type hooks struct {
	lookups       *counters.Counter
	invalidations *counters.Counter
	interventions *counters.Counter
	purges        *counters.Counter
	invalFanout   *counters.Histogram
}

// Directory tracks every line cached within one hypernode.
type Directory struct {
	hypernode int
	entries   map[topology.LineKey]entry
	ctr       hooks
	// victims backs the CPU lists RecordWrite and PurgeLine return, so
	// neither allocates; a list is valid until the next call of either.
	victims [topology.CPUsPerNode]topology.CPUID
}

// AttachCounters mirrors this directory's actions into the group:
// lookups, invalidations (copies killed), interventions (dirty-owner
// fetches), purges (whole-line SCI kills), and the inval_fanout
// histogram of copies killed per coherence action (only actions that
// killed at least one copy are observed). A nil group detaches.
func (d *Directory) AttachCounters(g *counters.Group) {
	d.ctr = hooks{
		lookups:       g.Counter("lookups"),
		invalidations: g.Counter("invalidations"),
		interventions: g.Counter("interventions"),
		purges:        g.Counter("purges"),
		invalFanout:   g.Histogram("inval_fanout"),
	}
}

// New returns an empty directory for the given hypernode.
func New(hypernode int) *Directory {
	return &Directory{hypernode: hypernode, entries: make(map[topology.LineKey]entry)}
}

// localIndex converts a CPUID to the 0..7 index inside this hypernode.
func (d *Directory) localIndex(cpu topology.CPUID) int {
	if cpu.Hypernode() != d.hypernode {
		panic(fmt.Sprintf("directory hn%d asked about foreign %v", d.hypernode, cpu))
	}
	return cpu.FU()*topology.CPUsPerFU + cpu.Local()
}

// appendCPUs appends the local CPUs whose bits are set in presence to
// out, in CPU order.
func (d *Directory) appendCPUs(out []topology.CPUID, presence uint8) []topology.CPUID {
	for i := 0; i < topology.CPUsPerNode; i++ {
		if presence&(1<<i) != 0 {
			out = append(out, topology.MakeCPU(d.hypernode, i/topology.CPUsPerFU, i%topology.CPUsPerFU))
		}
	}
	return out
}

// Owner reports the local CPU holding the line dirty, or ok=false.
func (d *Directory) Owner(key topology.LineKey) (topology.CPUID, bool) {
	e, ok := d.entries[key]
	if !ok || e.owner < 0 {
		return 0, false
	}
	o := int(e.owner)
	return topology.MakeCPU(d.hypernode, o/topology.CPUsPerFU, o%topology.CPUsPerFU), true
}

// ReadActions describes what a read miss requires of the hypernode.
type ReadActions struct {
	// DirtyOwner, if valid, must supply the line (intervention) before
	// memory can serve it.
	DirtyOwner    topology.CPUID
	HasDirtyOwner bool
}

// RecordRead notes that cpu now caches the line (shared) and reports the
// coherence work a read miss triggers.
func (d *Directory) RecordRead(key topology.LineKey, cpu topology.CPUID) ReadActions {
	d.ctr.lookups.Inc()
	idx := d.localIndex(cpu)
	e, ok := d.entries[key]
	if !ok {
		e.owner = -1
	}
	var acts ReadActions
	if e.owner >= 0 && int(e.owner) != idx {
		// A different local CPU holds it dirty: intervene, downgrade.
		o := int(e.owner)
		acts.DirtyOwner = topology.MakeCPU(d.hypernode, o/topology.CPUsPerFU, o%topology.CPUsPerFU)
		acts.HasDirtyOwner = true
		d.ctr.interventions.Inc()
		e.owner = -1
	}
	e.presence |= 1 << idx
	d.entries[key] = e
	return acts
}

// WriteActions describes what a write (ownership acquisition) requires.
type WriteActions struct {
	// InvalidateLocal are the other local CPUs whose copies must die.
	// It is valid until the directory's next RecordWrite or PurgeLine.
	InvalidateLocal []topology.CPUID
	// PreviousOwner, if valid, must first write the dirty line back.
	PreviousOwner    topology.CPUID
	HasPreviousOwner bool
}

// RecordWrite makes cpu the exclusive dirty owner and reports the copies
// that had to be invalidated.
func (d *Directory) RecordWrite(key topology.LineKey, cpu topology.CPUID) WriteActions {
	d.ctr.lookups.Inc()
	idx := d.localIndex(cpu)
	e, ok := d.entries[key]
	if !ok {
		e.owner = -1
	}
	var acts WriteActions
	if e.owner >= 0 && int(e.owner) != idx {
		o := int(e.owner)
		acts.PreviousOwner = topology.MakeCPU(d.hypernode, o/topology.CPUsPerFU, o%topology.CPUsPerFU)
		acts.HasPreviousOwner = true
		d.ctr.interventions.Inc()
	}
	acts.InvalidateLocal = d.appendCPUs(d.victims[:0], e.presence&^(1<<idx))
	if n := len(acts.InvalidateLocal); n > 0 {
		d.ctr.invalidations.Add(int64(n))
		d.ctr.invalFanout.Observe(int64(n))
	}
	e.presence = 1 << idx
	e.owner = int8(idx)
	d.entries[key] = e
	return acts
}

// DropCPU removes cpu's presence (its cache evicted the line).
func (d *Directory) DropCPU(key topology.LineKey, cpu topology.CPUID) {
	e, ok := d.entries[key]
	if !ok {
		return
	}
	idx := d.localIndex(cpu)
	e.presence &^= 1 << idx
	if e.owner == int8(idx) {
		e.owner = -1
	}
	if e.presence == 0 {
		delete(d.entries, key)
	} else {
		d.entries[key] = e
	}
}

// PurgeLine removes the line entirely (an SCI invalidation arrived) and
// returns the local CPUs whose caches must be invalidated. The list is
// valid until the directory's next RecordWrite or PurgeLine.
func (d *Directory) PurgeLine(key topology.LineKey) []topology.CPUID {
	sharers := d.appendCPUs(d.victims[:0], d.entries[key].presence)
	d.ctr.purges.Inc()
	if n := len(sharers); n > 0 {
		d.ctr.invalidations.Add(int64(n))
		d.ctr.invalFanout.Observe(int64(n))
	}
	delete(d.entries, key)
	return sharers
}

// CheckInvariants validates internal consistency; it returns an error
// describing the first violation found (used by property tests).
//
//simlint:allow deadexport invariant oracle the memsys coherence property test drives across packages
func (d *Directory) CheckInvariants() error {
	//simlint:allow determinism any one violation suffices; the walk never touches simulator state or rendered output
	for key, e := range d.entries {
		if e.presence == 0 {
			return fmt.Errorf("line %v tracked with empty presence", key)
		}
		if e.owner >= 0 {
			if e.presence&(1<<uint(e.owner)) == 0 {
				return fmt.Errorf("line %v: owner %d not in presence mask %08b", key, e.owner, e.presence)
			}
			if e.presence != 1<<uint(e.owner) {
				return fmt.Errorf("line %v: dirty but shared (owner %d, mask %08b)", key, e.owner, e.presence)
			}
		}
	}
	return nil
}
