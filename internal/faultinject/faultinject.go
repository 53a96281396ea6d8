// Package faultinject is the test-only hook layer behind the service's
// fault-matrix suite. Production code marks its failure-prone sites
// (running a job, persisting a result) with a Fire call naming a Point;
// tests Arm a Hook at that point to inject delays, errors, or torn
// writes and then prove the daemon degrades gracefully. When nothing is
// armed — the only state production ever sees — Fire is a single atomic
// load and returns nil, so the hooks cost nothing on the hot path and
// cannot perturb the deterministic simulation.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Point names one injectable site in production code. Sites are
// compiled in permanently; they do nothing until a test arms them.
type Point string

// The injectable sites. Each constant documents where its Fire call
// lives and what the hook receives.
const (
	// RunStart fires in the service worker when a job reaches its
	// compute step, before the peer fetch and the RunFunc. Arg: the
	// job id. A hook that blocks injects a slow run (filling the
	// bounded queue behind it); a hook that returns an error makes the
	// run fail.
	RunStart Point = "service.run.start"

	// StoreWrite fires in store.Put after the payload is written to the
	// temp file and before the atomic rename. Arg: the temp file path.
	// A hook that truncates or scribbles on the file simulates a torn
	// write that survives the rename; a returned error fails the Put.
	StoreWrite Point = "store.write"

	// StoreRead fires in store.Get before the entry file is read.
	// Arg: the entry file path. A returned error fails the read.
	StoreRead Point = "store.read"

	// GatewayForward fires in the sppgw gateway immediately before it
	// proxies a request to a backend. Args: the backend id, then the
	// request path. A returned error is treated exactly like a
	// connection failure: the gateway evicts the backend from the ring
	// and retries against the re-hashed owner — the backend-kill half of
	// the cluster fault matrix, without needing a real process to die.
	GatewayForward Point = "gateway.forward"

	// GatewayPeerProbe fires in the sppgw gateway inside handlePeer,
	// immediately before each candidate backend is probed for a store
	// entry. Args: the candidate backend id, then the result key. A
	// returned error is treated like a transport failure to that
	// candidate: it is evicted and, if the whole pass comes up empty, the
	// probe pass is retried once against the re-resolved ring — covering
	// the window where a backend vanishes between the ring lookup and the
	// probe.
	GatewayPeerProbe Point = "gateway.peerprobe"

	// PeerFetch fires in a clustered backend's peer-fetch client
	// immediately before it asks the gateway for another backend's copy
	// of a store entry. Arg: the result key. A returned error makes the
	// peer fetch miss, so the job falls through to a full local
	// recompute — the peer-fetch-failure half of the cluster fault
	// matrix (correctness must never depend on the warm path).
	PeerFetch Point = "service.peerfetch"
)

// Hook is the test-side handler armed at a Point. args identify the
// site instance (job id, file path — see the Point's doc). A non-nil
// error makes the production site fail with it.
type Hook func(args ...string) error

var (
	armed atomic.Int32 // number of armed points: the Fire fast-path gate
	mu    sync.Mutex
	hooks = map[Point]Hook{}
)

// Fire invokes the hook armed at p, if any. With nothing armed anywhere
// it is one atomic load and returns nil, so production builds pay
// nothing for the sites they carry.
func Fire(p Point, args ...string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[p]
	mu.Unlock()
	if h == nil {
		return nil
	}
	return h(args...)
}

// Arm installs h at p and returns a disarm func (idempotent; call it
// from t.Cleanup). Arming an already-armed point panics: overlapping
// hooks in parallel tests would silently shadow each other, so the
// fault-matrix tests that arm hooks must not run in parallel.
//
//simlint:allow deadexport fault hook the store, service and gateway fault-matrix tests drive
func Arm(p Point, h Hook) (disarm func()) {
	if h == nil {
		panic("faultinject: Arm with nil hook")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := hooks[p]; dup {
		panic(fmt.Sprintf("faultinject: point %q already armed", p))
	}
	hooks[p] = h
	armed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			defer mu.Unlock()
			delete(hooks, p)
			armed.Add(-1)
		})
	}
}
