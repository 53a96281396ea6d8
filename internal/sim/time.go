// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in CPU cycles of the
// simulated 100 MHz machine (one cycle = 10 ns). Simulated threads of
// control are Procs: coroutines that run one at a time under the kernel's
// control, parking whenever they wait for virtual time to pass or for a
// synchronization object. Because at most one Proc runs at any instant and
// events at equal timestamps fire in FIFO order, a simulation is a pure
// function of its inputs: same program, same result, down to the cycle.
package sim

import "fmt"

// Cycles is a point in (or duration of) virtual time, in CPU cycles of
// the simulated machine. The simulated clock is 100 MHz, so one cycle is
// 10 ns and one microsecond is 100 cycles.
//
// Cycles is a distinct unit type on purpose: virtual time must never mix
// with host wall-clock time (time.Duration, time.Time). The simtime
// analyzer in internal/lint flags any conversion between Cycles and
// time.Duration and any wall-clock type that appears inside a sim-core
// package — see docs/LINT.md.
type Cycles int64

// CyclesPerMicro is the number of simulated cycles in one microsecond.
const CyclesPerMicro = 100

// Micros reports the time in microseconds.
func (t Cycles) Micros() float64 { return float64(t) / CyclesPerMicro }

// Seconds reports the time in seconds.
func (t Cycles) Seconds() float64 { return float64(t) * 10e-9 }

// String formats the time with an adaptive unit.
func (t Cycles) String() string {
	switch {
	case t < 100:
		return fmt.Sprintf("%dcy", int64(t))
	case t < 100*1000:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < 100*1000*1000:
		return fmt.Sprintf("%.3fms", t.Micros()/1000)
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}
