package sim

import "testing"

// BenchmarkKernelEventThroughput measures the raw event-queue cost: one
// schedule + pop + dispatch per iteration, with the queue kept at depth
// one by a self-rescheduling chain. This is the floor under every
// simulated memory access and synchronization episode.
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	remaining := b.N
	var fire func()
	fire = func() {
		remaining--
		if remaining > 0 {
			k.After(1, fire)
		}
	}
	k.After(1, fire)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelEventThroughputDeep is the same chain with 1024 other
// pending events, exercising the heap's sift costs at realistic depth.
func BenchmarkKernelEventThroughputDeep(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	for i := 0; i < 1024; i++ {
		k.At(Cycles(1_000_000_000+i), func() {})
	}
	remaining := b.N
	var fire func()
	fire = func() {
		remaining--
		if remaining > 0 {
			k.After(1, fire)
		}
	}
	k.After(1, fire)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelDelayPingPong measures the full Proc round trip: one
// Delay per iteration — schedule the timed wake-up, park (yield the
// coroutine to the kernel), dispatch, resume. This is the hot path of
// every simulated thread.
func BenchmarkKernelDelayPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := b.N
	k.Spawn("delayer", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Delay(1)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
