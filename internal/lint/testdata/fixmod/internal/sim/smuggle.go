package sim

// RunPartitions tries to smuggle partition worker goroutines into the
// kernel itself: sim-core bans goroutines, so it fails.
func RunPartitions(parts []func()) {
	done := make(chan struct{}, len(parts))
	for _, p := range parts {
		p := p
		go func() { // want `goroutine spawned in sim-core`
			p()
			done <- struct{}{}
		}()
	}
	for range parts {
		<-done
	}
}
