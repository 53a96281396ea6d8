package pic

import (
	"math"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Sim {
	t.Helper()
	s, err := New(Size{8, 8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadingCounts(t *testing.T) {
	s := small(t)
	if got := len(s.X); got != 9*512 {
		t.Fatalf("particles = %d, want 9 per cell", got)
	}
	if s.NBeam != 512 {
		t.Fatalf("beam particles = %d, want 1 per cell", s.NBeam)
	}
	// Paper sizes.
	if Small.Particles() != 294912 {
		t.Fatalf("small problem particles = %d, want 294912 (Table 1)", Small.Particles())
	}
	if Large.Particles() != 1179648 {
		t.Fatalf("large problem particles = %d, want 1179648 (Table 1)", Large.Particles())
	}
}

func TestBeamIsMonoenergetic(t *testing.T) {
	s := small(t)
	for p := 0; p < s.NBeam; p++ {
		if s.VX[p] != 3.0 || s.VY[p] != 0 || s.VZ[p] != 0 {
			t.Fatalf("beam particle %d has velocity (%v,%v,%v)", p, s.VX[p], s.VY[p], s.VZ[p])
		}
	}
}

func TestBackgroundIsMaxwellian(t *testing.T) {
	s, err := New(Size{16, 16, 16}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumsq float64
	n := 0
	for p := s.NBeam; p < len(s.X); p++ {
		sum += s.VX[p]
		sumsq += s.VX[p] * s.VX[p]
		n++
	}
	mean := sum / float64(n)
	sigma := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("background mean velocity = %v, want ≈0", mean)
	}
	if math.Abs(sigma-1) > 0.05 {
		t.Fatalf("background thermal spread = %v, want ≈1", sigma)
	}
}

func TestDepositConservesCharge(t *testing.T) {
	s := small(t)
	s.Deposit()
	var want float64
	for _, q := range s.Q {
		want += q
	}
	got := s.TotalCharge()
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("deposited charge %v, particles carry %v", got, want)
	}
}

func TestDepositPositive(t *testing.T) {
	// A single particle at a cell center deposits all charge there.
	s := small(t)
	for p := range s.Q {
		s.Q[p] = 0
	}
	s.Q[0] = -1
	s.X[0], s.Y[0], s.Z[0] = 3.0, 4.0, 5.0
	s.Deposit()
	if math.Abs(s.Rho[s.cell(3, 4, 5)]+1) > 1e-12 {
		t.Fatalf("on-node particle deposits %v at its node", s.Rho[s.cell(3, 4, 5)])
	}
}

func TestSolveUniformChargeGivesZeroField(t *testing.T) {
	s := small(t)
	for i := range s.Rho {
		s.Rho[i] = -9
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	for i := range s.Ex {
		if math.Abs(s.Ex[i]) > 1e-9 || math.Abs(s.Ey[i]) > 1e-9 || math.Abs(s.Ez[i]) > 1e-9 {
			t.Fatalf("uniform charge produced field at %d", i)
		}
	}
}

func TestSolvePlaneWaveField(t *testing.T) {
	// ρ = cos(kx): E_x should be the discrete gradient of the potential,
	// a sine wave; E_y and E_z vanish.
	s := small(t)
	n := s.NX
	km := 2
	for k := 0; k < s.NZ; k++ {
		for j := 0; j < s.NY; j++ {
			for i := 0; i < n; i++ {
				s.Rho[s.cell(i, j, k)] = math.Cos(2 * math.Pi * float64(km) * float64(i) / float64(n))
			}
		}
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	keff := kEff(km, n)
	kg := kGrad(km, n)
	for i := 0; i < n; i++ {
		want := kg / (keff * keff) * math.Sin(2*math.Pi*float64(km)*float64(i)/float64(n))
		got := s.Ex[s.cell(i, 0, 0)]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Ex[%d] = %v, want %v", i, got, want)
		}
		if math.Abs(s.Ey[s.cell(i, 0, 0)]) > 1e-9 {
			t.Fatal("Ey should vanish for an x-directed wave")
		}
	}
}

func TestStepKeepsParticlesInBox(t *testing.T) {
	s := small(t)
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for p := range s.X {
		if s.X[p] < 0 || s.X[p] >= float64(s.NX) ||
			s.Y[p] < 0 || s.Y[p] >= float64(s.NY) ||
			s.Z[p] < 0 || s.Z[p] >= float64(s.NZ) {
			t.Fatalf("particle %d left the box: (%v,%v,%v)", p, s.X[p], s.Y[p], s.Z[p])
		}
	}
}

func TestChargeConservedOverSteps(t *testing.T) {
	s := small(t)
	s.Deposit()
	q0 := s.TotalCharge()
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(s.TotalCharge()-q0) > 1e-9*math.Abs(q0) {
		t.Fatalf("charge drifted: %v -> %v", q0, s.TotalCharge())
	}
}

func TestBeamDrivesFieldEnergy(t *testing.T) {
	// The beam-plasma system converts kinetic energy into electrostatic
	// field energy: starting from a cold, nearly neutral load the field
	// energy must grow within a few plasma periods and stay finite.
	s, err := New(Size{16, 16, 16}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	early := s.FieldEnergy()
	for i := 0; i < 15; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	late := s.FieldEnergy()
	if late <= early {
		t.Fatalf("field energy should grow from the beam: %v -> %v", early, late)
	}
	if math.IsNaN(late) || late > s.KineticEnergy() {
		t.Fatalf("field energy unphysical: %v (kinetic %v)", late, s.KineticEnergy())
	}
}

func TestMomentumNearlyConserved(t *testing.T) {
	// With equal charge-to-mass ratios the self-consistent field exerts
	// zero net force up to interpolation error: total momentum drifts
	// only slightly over a few steps.
	s := small(t)
	var px0 float64
	for p := range s.VX {
		px0 += s.VX[p]
	}
	for i := 0; i < 5; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var px float64
	for p := range s.VX {
		px += s.VX[p]
	}
	// Beam momentum is 512 cells × 3.0; allow a fraction of a percent.
	if rel := math.Abs(px-px0) / math.Abs(px0); rel > 0.01 {
		t.Fatalf("momentum drifted %.3f%% in 5 steps", rel*100)
	}
}

func TestDepositRangeDecomposes(t *testing.T) {
	// Depositing halves into partials and summing equals the full deposit.
	s := small(t)
	s.Deposit()
	want := append([]float64(nil), s.Rho...)
	half := len(s.X) / 2
	a := make([]float64, len(s.Rho))
	b := make([]float64, len(s.Rho))
	s.DepositRange(0, half, a)
	s.DepositRange(half, len(s.X), b)
	for i := range want {
		if math.Abs(a[i]+b[i]-want[i]) > 1e-12 {
			t.Fatalf("partial deposits differ at %d", i)
		}
	}
}

func TestNonPow2MeshRejected(t *testing.T) {
	if _, err := New(Size{10, 8, 8}, 1); err == nil {
		t.Fatal("10 should be rejected")
	}
}

// Property: deposit conserves charge for arbitrary particle positions.
func TestDepositChargeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		s, err := New(Size{4, 4, 4}, seed)
		if err != nil {
			return false
		}
		s.Deposit()
		var want float64
		for _, q := range s.Q {
			want += q
		}
		return math.Abs(s.TotalCharge()-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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

// TotalCharge sums the deposited mesh charge.
func (s *Sim) TotalCharge() float64 {
	var sum float64
	for _, r := range s.Rho {
		sum += r
	}
	return sum
}
