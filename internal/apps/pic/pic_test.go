package pic

import "testing"

func TestLoadingCounts(t *testing.T) {
	if got := (Size{8, 8, 8}).Particles(); got != 9*512 {
		t.Fatalf("particles = %d, want 9 per cell", got)
	}
	// Paper sizes.
	if Small.Particles() != 294912 {
		t.Fatalf("small problem particles = %d, want 294912 (Table 1)", Small.Particles())
	}
	if Large.Particles() != 1179648 {
		t.Fatalf("large problem particles = %d, want 1179648 (Table 1)", Large.Particles())
	}
}

func TestFlopsEstimates(t *testing.T) {
	if fftFlops(1) != 0 {
		t.Fatal("fftFlops(1) should be 0")
	}
	if fftFlops(1024) != int64(5*1024*10) {
		t.Fatalf("fftFlops(1024) = %d", fftFlops(1024))
	}
	if fftFlops3(4, 4, 4) <= 0 {
		t.Fatal("fftFlops3 should be positive")
	}
}

func TestRunShapeTargets(t *testing.T) {
	// Fig. 6 shape at reduced step count (timing is per-step uniform).
	const steps = 5
	s1, err := RunShared(Small, 1, steps)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := RunShared(Small, 16, steps)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := RunPVM(Small, 16, steps)
	if err != nil {
		t.Fatal(err)
	}
	// Shared memory outperforms PVM (paper: consistently).
	if s16.Mflops <= p16.Mflops {
		t.Fatalf("shared (%v) should beat PVM (%v)", s16.Mflops, p16.Mflops)
	}
	// PVM ≈ half the shared-memory performance (§3.1).
	ratio := s16.Mflops / p16.Mflops
	if ratio < 1.5 || ratio > 4.5 {
		t.Errorf("shared/PVM ratio = %.2f, want ≈2", ratio)
	}
	// 16 CPUs approach the C90 head (§6).
	_, c90rate := C90Reference(Small, steps)
	if s16.Mflops < 0.6*c90rate || s16.Mflops > 1.4*c90rate {
		t.Errorf("16-CPU rate %.0f vs C90 %.0f: should be comparable", s16.Mflops, c90rate)
	}
	// Good single-hypernode scaling.
	s8, err := RunShared(Small, 8, steps)
	if err != nil {
		t.Fatal(err)
	}
	if eff := s8.Mflops / s1.Mflops / 8; eff < 0.8 {
		t.Errorf("8-CPU efficiency = %.2f, want ≥0.8", eff)
	}
	// The large problem is slower per CPU (cache effect, §6).
	l1, err := RunShared(Large, 1, steps)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Mflops >= s1.Mflops {
		t.Errorf("large problem (%v Mf) should run below small (%v Mf) per CPU", l1.Mflops, s1.Mflops)
	}
}

func TestC90ReferenceTable1(t *testing.T) {
	// Table 1 rates: 355 / 369 Mflop/s.
	_, rate := C90Reference(Small, 500)
	if rate < 330 || rate > 395 {
		t.Fatalf("C90 PIC rate = %.0f, want ≈362", rate)
	}
	secSmall, _ := C90Reference(Small, 500)
	secLarge, _ := C90Reference(Large, 500)
	// Table 1 times scale ~4x between the sizes (112.9 → 436.4 s).
	if r := secLarge / secSmall; r < 3.5 || r > 4.5 {
		t.Fatalf("large/small C90 time ratio = %.2f, want ≈3.9", r)
	}
}
