// Command mstworker hosts the remote ranks of distributed kamsta machines.
// It listens for leader connections (mstbench/mstverify/mstserve with
// -transport tcp, or any program building a Machine with TransportTCP) and,
// per connection, runs the rank block the leader assigns until the leader
// hangs up. One worker process serves any number of leaders concurrently;
// each connection gets its own simulated world.
//
// Usage:
//
//	mstworker -listen 127.0.0.1:9021
//	mstworker -listen :9021 -quiet -metrics metrics.txt -pprof localhost:6060
//
// SIGINT/SIGTERM stops accepting, severs live connections (their leaders
// observe a transport fault), and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"

	"kamsta"
	"kamsta/internal/cliobs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9021", "address to accept leader connections on")
	quiet := flag.Bool("quiet", false, "suppress per-connection log lines")
	obsFlags := cliobs.Register()
	flag.Parse()

	cliobs.Run("mstworker", obsFlags, func(ctx context.Context) error {
		lis, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mstworker: "+format+"\n", args...)
		}
		opts := kamsta.WorkerOptions{Metrics: obsFlags.Registry}
		if !*quiet {
			opts.Logf = logf
		}
		logf("listening on %s", lis.Addr())
		return kamsta.ServeWorker(ctx, lis, opts)
	})
}
