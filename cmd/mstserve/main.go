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
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"kamsta/internal/cliobs"
	"kamsta/internal/obs"
	"kamsta/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address for the job API")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGINT/SIGTERM")
	srvFlags := serve.RegisterFlags(flag.CommandLine)
	obsFlags := cliobs.Register()
	tpFlags := cliobs.RegisterTransport()
	flag.Parse()

	cliobs.Run("mstserve", obsFlags, func(ctx context.Context) error {
		cfg, err := srvFlags.Config()
		if err != nil {
			return cliobs.Usagef("%v", err)
		}
		cfg.Transport, cfg.Workers, cfg.Trace = tpFlags.Transport, tpFlags.Workers(), obsFlags.Trace
		// The job API always serves /metrics, even without -metrics/-pprof.
		if cfg.Metrics = obsFlags.Registry; cfg.Metrics == nil {
			cfg.Metrics = obs.NewRegistry()
		}

		// Bind before building the pool: a taken port must fail fast, not
		// after warming a fleet of machines.
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return cliobs.Usagef("listen: %v", err)
		}
		srv, err := serve.New(cfg)
		if err != nil {
			ln.Close()
			return cliobs.Usagef("%v", err)
		}

		// ReadHeaderTimeout caps how long a connection may dribble its request
		// header (slow-loris); job bodies are bounded by -max-body instead.
		httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		serveErr := make(chan error, 1)
		go func() { serveErr <- httpSrv.Serve(ln) }()
		fmt.Printf("mstserve: serving on http://%s (pool %s)\n", ln.Addr(), srvFlags.Pool)
		select {
		case err := <-serveErr:
			return fmt.Errorf("http: %w", err)
		case <-ctx.Done():
		}

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
		if forced != nil {
			return errors.New("drain timed out; remaining jobs were cancelled")
		}
		fmt.Fprintln(os.Stderr, "mstserve: drained cleanly")
		return nil
	})
}
