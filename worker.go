package kamsta

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/transport/tcp"
)

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Metrics, when non-nil, receives the worker's per-link transport
	// counters and its worlds' per-PE substrate series.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per connection lifecycle event
	// (accepted, world geometry, shutdown reason).
	Logf func(format string, args ...any)
}

// ServeWorker turns this process into a distributed machine's worker: it
// accepts leader connections on lis and, per connection, hosts the rank
// block the leader's handshake assigns — building a comm.World over the
// connection's transport and running every dispatched job's SPMD body on
// its local ranks. Several leaders may connect concurrently (a serving
// pool's machines can share one worker process); each connection gets its
// own world.
//
// ServeWorker blocks until ctx is cancelled (then returns nil after
// closing the listener and its connections) or the listener fails.
func ServeWorker(ctx context.Context, lis net.Listener, opts WorkerOptions) error {
	stop := context.AfterFunc(ctx, func() { lis.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveWorkerConn(ctx, conn, opts)
		}()
	}
}

// serveWorkerConn drives one leader connection: handshake, build the
// world, then loop job dispatches until the leader hangs up, the context
// ends, or the world breaks.
func serveWorkerConn(ctx context.Context, conn net.Conn, opts WorkerOptions) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f, hs, err := tcp.AcceptFollower(conn, opts.Metrics)
	if err != nil {
		conn.Close()
		logf("worker: handshake failed: %v", err)
		return
	}
	// Cancelling ctx mid-job closes the connection: the in-flight
	// superstep surfaces a transport fault, the local ranks unwind by
	// abort verdict, and the loop below exits.
	stop := context.AfterFunc(ctx, func() { f.Close() })
	defer stop()
	defer f.Close()
	logf("worker: hosting ranks [%d,%d) of %d for %s", hs.Lo, hs.Hi, hs.P, conn.RemoteAddr())

	w := comm.NewWorld(hs.P,
		comm.WithTransport(f),
		comm.WithThreads(hs.Threads),
		comm.WithCost(comm.CostModel{Alpha: hs.Alpha, Beta: hs.Beta, Compute: hs.Compute}),
		comm.WithMetrics(opts.Metrics))
	w.Start()
	defer w.Close()

	var spec wireJobSpec
	var endB []byte // the encoded report, kept across jobs
	for {
		specB, err := f.NextJob()
		if err != nil {
			if errors.Is(err, io.EOF) {
				logf("worker: leader %s closed", conn.RemoteAddr())
			} else {
				logf("worker: %v", err)
			}
			return
		}
		if err := decodeWire("job spec", specB, &spec); err != nil {
			logf("worker: %v", err)
			return
		}
		end := runWorkerJob(w, f, hs, spec)
		endB = encodeWire(endB[:0], &end)
		if err := f.EndJob(endB); err != nil {
			logf("worker: %v", err)
			return
		}
		if w.Broken() || f.Failed() {
			logf("worker: world broken after %s job; closing %s", spec.Kind, conn.RemoteAddr())
			return
		}
	}
}

// runWorkerJob runs one dispatched job's SPMD body on this process's rank
// block and assembles the end-of-job report; a spec this process cannot run
// (unknown kind or source) yields a failure report, never a hang. Jobs run
// under context.Background(): cancellation is the leader's to decide (it
// reaches the workers through the superstep verdict), and worker shutdown
// closes the connection instead.
func runWorkerJob(w *comm.World, f *tcp.Follower, hs tcp.Handshake, spec wireJobSpec) wireJobEnd {
	rs := spec.settings()
	f.SetIOTimeout(ioTimeoutFor(rs.stall))
	var j *job
	src, err := spec.Source.source()
	if err == nil {
		j, err = runKind(context.Background(), w, spec.Kind, src, rs)
	}
	return jobEndOf(w, hs.Lo, hs.Hi, j, err)
}

// ioTimeoutFor maps a job's stall budget onto the transport's per-wait
// read/write deadline: twice the budget, so the stall watchdog (which
// diagnoses arrival state properly) wins the race against the blunter
// transport deadline. Zero keeps the transport's default.
func ioTimeoutFor(stall time.Duration) time.Duration {
	if stall > 0 {
		return 2 * stall
	}
	return 0
}
