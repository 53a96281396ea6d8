package faultinject

import (
	"errors"
	"testing"
)

func TestFireDisarmedIsNoop(t *testing.T) {
	if err := Fire(RunStart, "job"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if Armed() {
		t.Fatal("Armed() with nothing armed")
	}
}

func TestArmFireDisarm(t *testing.T) {
	injected := errors.New("injected")
	var got []string
	disarm := Arm(RunStart, func(args ...string) error {
		got = append(got, args...)
		return injected
	})
	defer disarm()

	if !Armed() {
		t.Fatal("Armed() false after Arm")
	}
	if err := Fire(RunStart, "a", "b"); !errors.Is(err, injected) {
		t.Fatalf("Fire = %v, want injected error", err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("hook args = %v", got)
	}
	// Other points stay unarmed.
	if err := Fire(StoreWrite, "path"); err != nil {
		t.Fatalf("unarmed point fired hook: %v", err)
	}

	disarm()
	if Armed() {
		t.Fatal("Armed() true after disarm")
	}
	if err := Fire(RunStart); err != nil {
		t.Fatalf("Fire after disarm = %v", err)
	}
	disarm() // idempotent
	if Armed() {
		t.Fatal("double disarm went negative")
	}
}

func TestDoubleArmPanics(t *testing.T) {
	disarm := Arm(StoreRead, func(...string) error { return nil })
	defer disarm()
	defer func() {
		if recover() == nil {
			t.Fatal("second Arm of the same point did not panic")
		}
	}()
	Arm(StoreRead, func(...string) error { return nil })
}

// Armed reports whether any point currently has a hook, for tests that
// assert the world was restored after a disarm.
func Armed() bool { return armed.Load() > 0 }
