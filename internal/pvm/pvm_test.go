package pvm

import (
	"testing"

	"spp1000/internal/machine"
	"spp1000/internal/sim"
	"spp1000/internal/topology"
)

// roundTrip measures a ping-pong of the given size between two CPUs.
func roundTrip(t *testing.T, a, b topology.CPUID, bytes int) sim.Cycles {
	t.Helper()
	m, err := machine.New(machine.Config{Hypernodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(m)
	var rt sim.Cycles
	ready := m.K.NewEvent("ready")

	var t0, t1 *Task
	m.Spawn("ping", a, func(th *machine.Thread) {
		t0 = sys.AddTask(th)
		ready.Wait(th.P)
		start := th.Now()
		t0.Send(t1.ID(), 1, bytes, nil)
		t0.Recv()
		rt = th.Now() - start
	})
	m.Spawn("pong", b, func(th *machine.Thread) {
		t1 = sys.AddTask(th)
		ready.Set()
		msg := t1.Recv()
		t1.Send(msg.Src, 2, bytes, nil)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestLocalRoundTripApprox30us(t *testing.T) {
	// Paper Fig. 4: local round trip ≈30 µs below 8 KB.
	rt := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0), 1024)
	if rt.Micros() < 20 || rt.Micros() > 40 {
		t.Fatalf("local RT = %.1f µs, want ≈30", rt.Micros())
	}
}

func TestGlobalRoundTripApprox70us(t *testing.T) {
	// Paper Fig. 4: inter-hypernode round trip ≈70 µs below 8 KB.
	rt := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(1, 0, 0), 1024)
	if rt.Micros() < 55 || rt.Micros() > 90 {
		t.Fatalf("global RT = %.1f µs, want ≈70", rt.Micros())
	}
}

func TestGlobalLocalRatioApprox23(t *testing.T) {
	local := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0), 1024)
	global := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(1, 0, 0), 1024)
	ratio := global.Micros() / local.Micros()
	if ratio < 1.8 || ratio > 3.0 {
		t.Fatalf("global/local RT ratio = %.2f, want ≈2.3", ratio)
	}
}

func TestFlatBelow8KThenKnee(t *testing.T) {
	small := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0), 256)
	at8k := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0), 8192)
	at32k := roundTrip(t, topology.MakeCPU(0, 0, 0), topology.MakeCPU(0, 1, 0), 32768)
	// Below the knee: near-constant (within ~30%).
	if at8k.Micros() > small.Micros()*1.4 {
		t.Fatalf("RT grew too fast below 8 KB: %.1f -> %.1f µs", small.Micros(), at8k.Micros())
	}
	// Beyond the knee: substantial growth.
	if at32k.Micros() < at8k.Micros()*1.8 {
		t.Fatalf("no knee: 8 KB %.1f µs vs 32 KB %.1f µs", at8k.Micros(), at32k.Micros())
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	m, _ := machine.New(machine.Config{Hypernodes: 1})
	sys := NewSystem(m)
	var got []int
	ready := m.K.NewEvent("ready")
	var sender, receiver *Task
	m.Spawn("rx", topology.MakeCPU(0, 1, 0), func(th *machine.Thread) {
		receiver = sys.AddTask(th)
		ready.Set()
		for i := 0; i < 5; i++ {
			got = append(got, receiver.Recv().Tag)
		}
	})
	m.Spawn("tx", topology.MakeCPU(0, 0, 0), func(th *machine.Thread) {
		sender = sys.AddTask(th)
		ready.Wait(th.P)
		for i := 0; i < 5; i++ {
			sender.Send(receiver.ID(), i, 64, nil)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tag := range got {
		if tag != i {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestPayloadCarried(t *testing.T) {
	m, _ := machine.New(machine.Config{Hypernodes: 1})
	sys := NewSystem(m)
	data := []float64{1, 2, 3}
	var out []float64
	ready := m.K.NewEvent("ready")
	var rx *Task
	m.Spawn("rx", topology.MakeCPU(0, 1, 0), func(th *machine.Thread) {
		rx = sys.AddTask(th)
		ready.Set()
		out = rx.Recv().Payload.([]float64)
	})
	m.Spawn("tx", topology.MakeCPU(0, 0, 0), func(th *machine.Thread) {
		tx := sys.AddTask(th)
		ready.Wait(th.P)
		tx.Send(rx.ID(), 0, len(data)*8, data)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("payload lost: %v", out)
	}
}

func TestSendToUnknownTaskPanics(t *testing.T) {
	m, _ := machine.New(machine.Config{Hypernodes: 1})
	sys := NewSystem(m)
	panicked := false
	m.Spawn("tx", topology.MakeCPU(0, 0, 0), func(th *machine.Thread) {
		tx := sys.AddTask(th)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		tx.Send(99, 0, 64, nil)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("expected panic")
	}
}

func TestStats(t *testing.T) {
	m, _ := machine.New(machine.Config{Hypernodes: 1})
	sys := NewSystem(m)
	ready := m.K.NewEvent("ready")
	var rx, tx *Task
	m.Spawn("rx", topology.MakeCPU(0, 1, 0), func(th *machine.Thread) {
		rx = sys.AddTask(th)
		ready.Set()
		rx.Recv()
		rx.Recv()
	})
	m.Spawn("tx", topology.MakeCPU(0, 0, 0), func(th *machine.Thread) {
		tx = sys.AddTask(th)
		ready.Wait(th.P)
		tx.Send(rx.ID(), 0, 100, nil)
		tx.Send(rx.ID(), 1, 200, nil)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tx.Sent != 2 || tx.BytesSent != 300 || rx.Received != 2 {
		t.Fatalf("stats: sent=%d bytes=%d recv=%d", tx.Sent, tx.BytesSent, rx.Received)
	}
}
