package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceIdleService(t *testing.T) {
	var r Resource
	if done := r.Reserve(100, 20); done != 120 {
		t.Fatalf("idle reserve = %d, want 120", done)
	}
	if r.FreeAt() != 120 {
		t.Fatalf("horizon = %d, want 120", r.FreeAt())
	}
}

func TestResourceQueues(t *testing.T) {
	var r Resource
	r.Reserve(0, 50)
	if done := r.Reserve(10, 50); done != 100 {
		t.Fatalf("queued reserve = %d, want 100 (starts at 50)", done)
	}
	if r.FreeAt() != 100 {
		t.Fatalf("horizon = %d", r.FreeAt())
	}
}

func TestResourceIdleGap(t *testing.T) {
	var r Resource
	r.Reserve(0, 10)
	// Next request arrives after the horizon: no queueing.
	if done := r.Reserve(100, 10); done != 110 {
		t.Fatalf("post-gap reserve = %d, want 110", done)
	}
}

// Property: each request starts at max(arrival, previous completion),
// so its completion is never before arrival plus service, and the
// horizon is the last completion.
func TestResourceAccounting(t *testing.T) {
	prop := func(durs []uint8) bool {
		var r Resource
		now, prev := Cycles(0), Cycles(0)
		for _, d8 := range durs {
			d := Cycles(d8)
			done := r.Reserve(now, d)
			if done != max(now, prev)+d || r.FreeAt() != done {
				return false
			}
			prev = done
			now += Cycles(d8 / 2) // requests arrive faster than service
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
