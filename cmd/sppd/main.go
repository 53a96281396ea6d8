// Command sppd runs the simulator as a long-lived service: submit
// experiment jobs over HTTP, poll their status, fetch rendered results.
// Every job is content-addressed by the canonical hash of its full
// configuration, so an identical submission joins the job already
// holding its key (in flight or done), or is read back from the durable
// store, instead of re-simulating.
//
// Usage:
//
//	sppd                          # listen on :8177
//	sppd -addr :9000 -queue 128   # custom port, deeper queue
//	sppd -jobs 2 -par 4           # 2 concurrent jobs, 4 host workers each
//	sppd -store /var/lib/sppd     # durable results: survive restarts
//	sppd -job-timeout 10m         # default per-job execution deadline
//	sppd -join http://gw:8178     # register as a sppgw cluster backend
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id}[/result],
// DELETE /v1/jobs/{id}, GET /metrics, GET /healthz. See docs/SERVICE.md.
// Drive it with cmd/sppctl. SIGINT/SIGTERM drain gracefully: running
// jobs finish (up to -drain), new submissions get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spp1000/internal/runner"
	"spp1000/internal/service"
	"spp1000/internal/store"
)

func main() {
	addr := flag.String("addr", ":8177", "listen address")
	queue := flag.Int("queue", 64, "job queue depth (submissions beyond it get 503)")
	jobs := flag.Int("jobs", 1, "jobs executed concurrently")
	par := flag.Int("par", 0, "host workers per job for independent simulations (0 = all cores)")
	storeDir := flag.String("store", "", "durable result store directory (empty = memory only; results then die with the process)")
	storeCap := flag.Int("store-cap", 4096, "durable store entries kept, oldest evicted (<=0 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job execution deadline (0 = none; submissions may override)")
	drain := flag.Duration("drain", 5*time.Minute, "max time to drain jobs on shutdown")
	join := flag.String("join", "", "sppgw gateway URL to join as a cluster backend (empty = standalone)")
	advertise := flag.String("advertise", "", "base URL this backend advertises to the gateway (default http://127.0.0.1<port of -addr>)")
	id := flag.String("id", "", "backend identity in the cluster (default: the advertise address without its scheme)")
	heartbeat := flag.Duration("heartbeat", time.Second, "registration heartbeat interval when joined")
	flag.Parse()

	if *par < 0 {
		fmt.Fprintf(os.Stderr, "sppd: -par must be >= 0 (got %d)\n", *par)
		os.Exit(2)
	}
	if *jobTimeout < 0 {
		fmt.Fprintf(os.Stderr, "sppd: -job-timeout must be >= 0 (got %v)\n", *jobTimeout)
		os.Exit(2)
	}
	runner.SetWorkers(*par)

	cfg := service.Config{
		QueueDepth: *queue,
		Workers:    *jobs,
		JobTimeout: *jobTimeout,
	}
	if *join != "" {
		if *advertise == "" {
			*advertise = defaultAdvertise(*addr)
		}
		if *id == "" {
			*id = strings.TrimPrefix(strings.TrimPrefix(*advertise, "https://"), "http://")
		}
		cfg.ID = *id
		// Warm-miss path: a key re-hashed onto this backend is first
		// sought on its previous ring owner (via the gateway) before
		// being recomputed.
		cfg.PeerFetch = service.PeerFetchVia(*join, *id)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeCap)
		if err != nil {
			log.Fatalf("sppd: %v", err)
		}
		log.Printf("sppd: durable store %s (%d prior results)", st.Dir(), st.Len())
		cfg.Store = st
	}
	srv := service.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("sppd: listening on %s (queue %d, %d concurrent jobs, %d host workers)",
			*addr, *queue, *jobs, runner.Workers())
		errc <- httpSrv.ListenAndServe()
	}()

	var joiner *service.Joiner
	if *join != "" {
		log.Printf("sppd: joining cluster at %s as %q (advertising %s, heartbeat %v)", *join, *id, *advertise, *heartbeat)
		joiner = service.StartJoiner(*join, *id, *advertise, *heartbeat)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("sppd: %v, draining (max %v)", sig, *drain)
	case err := <-errc:
		log.Fatalf("sppd: %v", err)
	}

	if joiner != nil {
		// Leave the ring first so the gateway re-hashes this backend's
		// keys immediately instead of routing into the drain.
		joiner.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("sppd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("sppd: drain incomplete: %v", err)
	}
	log.Printf("sppd: drained cleanly")
}

// defaultAdvertise derives the URL a backend advertises from its
// listen address: a bare ":8177" becomes http://127.0.0.1:8177, an
// explicit host:port is used as given.
func defaultAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}
