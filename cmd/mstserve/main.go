// Command mstserve runs the multi-tenant MST job server: a pool of warm
// persistent machines behind a bounded, weighted-fair queue, exposed over
// an HTTP/JSON job API (see internal/serve). SIGINT/SIGTERM drains
// gracefully: admission stops, queued and running jobs finish (bounded by
// -drain-timeout), then metrics and traces flush.
//
// Usage:
//
//	mstserve                                      # one 4-PE machine, open tenancy
//	mstserve -pool 4x1:2,8x1 -tenants alpha:4,beta:2
//	mstserve -addr :8377 -batch-jobs 8 -max-deadline 30s -metrics -
//	mstserve -retry-attempts 3 -quarantine-after 5 -brownout 0.8
//
// Overload resilience (see internal/serve and DESIGN.md §11): deadline-aware
// admission shedding (-shed-min-samples, -shed-quantile), brownout
// (-brownout), machine quarantine (-quarantine-after), and server-side retry
// of fault-killed jobs (-retry-attempts, -retry-rate, -retry-burst).
// /healthz answers liveness; /readyz answers 503 while the server should be
// steered around (draining, brownout, no live machines).
//
// API (see internal/serve/http.go):
//
//	curl -s localhost:8377/v1/jobs -d '{"tenant":"alpha","spec":{"family":"gnm","n":1024,"m":8192}}'
//	curl -s 'localhost:8377/v1/jobs/1?wait=5s'
//	curl -s localhost:8377/v1/stats
//	curl -s localhost:8377/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kamsta/internal/cliobs"
	"kamsta/internal/obs"
	"kamsta/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address for the job API")
	pool := flag.String("pool", "4x1:1", "machine pool: comma-separated PEs[xThreads][:Count]")
	tenants := flag.String("tenants", "", "tenants and weights, name[:weight] comma-separated (empty = open tenancy)")
	defaultWeight := flag.Int("default-weight", 0, "weight for unknown tenants (0 with -tenants set = reject them)")
	queue := flag.Int("queue", 1024, "global queue bound")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant queue bound (0 = global bound)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline for jobs that set none (0 = unlimited)")
	maxDeadline := flag.Duration("max-deadline", 0, "clamp every job deadline (0 = unlimited)")
	batchJobs := flag.Int("batch-jobs", 8, "max small edge-list jobs coalesced per machine run (<=1 disables batching)")
	batchEdges := flag.Int("batch-edges", 65536, "max summed edges per batch")
	stall := flag.Duration("stall", 0, "per-job stall timeout (0 = machine default)")
	resultTTL := flag.Duration("result-ttl", 10*time.Minute, "how long finished jobs stay pollable")
	allowFiles := flag.Bool("allow-files", false, "permit HTTP jobs that read server-local graph files")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGINT/SIGTERM")
	shedSamples := flag.Int("shed-min-samples", 16, "dispatches observed before deadline-aware shedding engages (<0 disables)")
	shedQuantile := flag.Float64("shed-quantile", 0.9, "service-time quantile the queue-wait estimate plans for")
	brownout := flag.Float64("brownout", 0.75, "queue depth fraction that flips brownout (>=1 = only on quarantine)")
	quarantineAfter := flag.Int("quarantine-after", 0, "consecutive contained faults that quarantine a healthy machine (0 disables; a dead machine always leaves service)")
	retryAttempts := flag.Int("retry-attempts", 1, "dispatch attempts per fault-killed job (<=1 disables server-side retries)")
	retryRate := flag.Float64("retry-rate", 1, "per-tenant retry budget refill, tokens/second")
	retryBurst := flag.Float64("retry-burst", 10, "per-tenant retry budget burst")
	maxBody := flag.Int64("max-body", 64<<20, "largest accepted job submission body, bytes")
	obsFlags := cliobs.Register()
	tpFlags := cliobs.RegisterTransport()
	flag.Parse()

	shapes, err := serve.ParsePool(*pool)
	if err != nil {
		fail("%v", err)
	}
	tcs, err := serve.ParseTenants(*tenants)
	if err != nil {
		fail("%v", err)
	}
	if *queue < 1 {
		fail("-queue must be at least 1 (got %d)", *queue)
	}
	if *tenantQueue < 0 {
		fail("-tenant-queue must be non-negative (got %d)", *tenantQueue)
	}
	if *shedQuantile <= 0 || *shedQuantile > 1 {
		fail("-shed-quantile must be in (0, 1] (got %g)", *shedQuantile)
	}
	if err := obsFlags.Activate(); err != nil {
		fail("%v", err)
	}
	// The job API always serves /metrics, even without -metrics/-pprof.
	reg := obsFlags.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	// Bind before building the pool: a taken port must fail fast with a
	// non-zero exit, not after warming a fleet of machines.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}

	srv, err := serve.New(serve.Config{
		Pool:             shapes,
		Transport:        tpFlags.Transport,
		Workers:          tpFlags.Workers(),
		Tenants:          tcs,
		DefaultWeight:    *defaultWeight,
		QueueBound:       *queue,
		TenantQueueBound: *tenantQueue,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		Batch:            serve.BatchConfig{MaxJobs: *batchJobs, MaxEdges: *batchEdges},
		StallTimeout:     *stall,
		ResultTTL:        *resultTTL,
		AllowFiles:       *allowFiles,
		ShedMinSamples:   *shedSamples,
		ShedQuantile:     *shedQuantile,
		BrownoutFraction: *brownout,
		QuarantineAfter:  *quarantineAfter,
		Retry: serve.RetryConfig{
			MaxAttempts: *retryAttempts,
			BudgetRate:  *retryRate,
			BudgetBurst: *retryBurst,
		},
		MaxRequestBytes: *maxBody,
		Metrics:         reg,
		Trace:           obsFlags.Trace,
	})
	if err != nil {
		ln.Close()
		fail("%v", err)
	}

	// ReadHeaderTimeout caps how long a connection may dribble its request
	// header (slow-loris); job bodies are bounded by -max-body instead.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("mstserve: serving on http://%s (pool %s)\n", ln.Addr(), *pool)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fail("http: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Graceful drain: stop admitting, let queued and running jobs finish;
	// past -drain-timeout, cancel what's left (jobs unwind at their next
	// collective boundary).
	fmt.Fprintf(os.Stderr, "mstserve: draining (up to %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	forced := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutCtx)
	if err := obsFlags.Flush(); err != nil {
		fail("%v", err)
	}
	if forced != nil {
		fmt.Fprintln(os.Stderr, "mstserve: drain timed out; remaining jobs were cancelled")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mstserve: drained cleanly")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mstserve: "+format+"\n", args...)
	os.Exit(2)
}
