// Package cliobs is what the kamsta commands share, so that each is a flag
// parser and nothing else: the process scaffold (Run: signal context,
// observability sinks activated and flushed, one exit-status mapping), the
// observability trio -metrics, -trace and -pprof, the distributed-machine
// pair -transport and -workers, and the sweep block -ps, -alg, -input,
// -format, -timeout of the two commands that drive internal/bench.
package cliobs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	// Register the pprof handlers on http.DefaultServeMux; the -pprof
	// server below serves that mux.
	_ "net/http/pprof"

	"kamsta"
	"kamsta/internal/bench"
	"kamsta/internal/obs"
)

// usageError marks a failure of the command line itself.
type usageError struct{ error }

// Usagef is the error a command body returns for a bad flag value or an
// unusable combination of flags: Run exits 2 on it and flushes nothing.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// ExitCode maps what a command body returned to the process exit status:
// 0 for nil, 2 for a usage error, 130 for an interrupt (the body's context
// was cancelled), 1 for any other failure.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usageError{}):
		return 2
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

// Run is the process scaffold of every command; call it after flag.Parse,
// with everything else in body. It activates the observability sinks, runs
// body under a context that SIGINT/SIGTERM cancel (jobs unwind at their next
// collective boundary; a second signal kills the process the default way),
// flushes -metrics/-trace on every path that got past the command line,
// prints "name: error" and exits with ExitCode. It does not return.
func Run(name string, f *Flags, body func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err := f.Activate()
	if err != nil {
		err = usageError{err}
	} else {
		err = body(ctx)
	}
	code := ExitCode(err)
	if code != 2 {
		if ferr := f.Flush(); ferr != nil && code == 0 {
			err, code = ferr, 1
		}
	}
	switch {
	case code == 130:
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", name)
	case err != nil:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(code)
}

// Flags holds the observability flag values and, after Activate, the live
// sinks they configure.
type Flags struct {
	MetricsPath string
	TracePath   string
	PprofAddr   string

	// Registry is non-nil when -metrics or -pprof asked for one.
	Registry *obs.Registry
	// Trace is non-nil when -trace asked for one.
	Trace *obs.Trace
}

// Register declares the three flags on the default flag set. Call before
// flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.MetricsPath, "metrics", "",
		"write metrics on exit as Prometheus text: a path or - for stdout")
	flag.StringVar(&f.TracePath, "trace", "",
		"record a span trace and write it on exit: a path (.json = Chrome trace_event, else text summary) or - for stdout")
	flag.StringVar(&f.PprofAddr, "pprof", "",
		"serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return f
}

// Activate builds the sinks the parsed flags ask for and starts the -pprof
// server. Run calls it once, before the body creates any machine or world.
func (f *Flags) Activate() error {
	if f.MetricsPath != "" || f.PprofAddr != "" {
		f.Registry = obs.NewRegistry()
	}
	if f.TracePath != "" {
		f.Trace = obs.NewTrace()
	}
	if f.PprofAddr != "" {
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/", http.DefaultServeMux) // pprof lives here
		mux.Handle("/metrics", f.Registry.Handler())
		go func() { _ = http.Serve(ln, mux) }() //nolint:errcheck // best-effort debug server
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s (profiles under /debug/pprof/, metrics at /metrics)\n",
			ln.Addr())
	}
	return nil
}

// Flush writes the metrics and trace outputs the flags asked for. Run calls
// it once on the way out, after the body's jobs have completed.
func (f *Flags) Flush() error {
	if f.MetricsPath != "" {
		if err := writeOut(f.MetricsPath, f.Registry.WritePrometheus); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if f.TracePath != "" {
		emit := f.Trace.WriteSummary
		if strings.HasSuffix(f.TracePath, ".json") {
			emit = f.Trace.WriteChromeJSON
		}
		if err := writeOut(f.TracePath, emit); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		if n := f.Trace.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d spans dropped (ring capacity %d spans per rank and job; trace a smaller job)\n",
				n, obs.DefaultRingCap)
		}
	}
	return nil
}

// TransportFlags holds the distributed-machine flag values shared by the
// commands that build kamsta.Machines (mstbench, mstverify, mstserve).
type TransportFlags struct {
	// Transport is the -transport value, a kamsta.MachineConfig.Transport
	// ("" = in-process default).
	Transport string

	workers string
}

// RegisterTransport declares -transport and -workers on the default flag
// set. Call before flag.Parse.
func RegisterTransport() *TransportFlags {
	f := &TransportFlags{}
	flag.StringVar(&f.Transport, "transport", "",
		`machine substrate: "shm" (in-process, default) or "tcp" (lead a distributed world; see -workers)`)
	flag.StringVar(&f.workers, "workers", "",
		"comma-separated mstworker addresses (host:port) hosting the remote ranks of -transport tcp")
	return f
}

// Workers returns the parsed -workers address list (nil when unset).
func (f *TransportFlags) Workers() []string {
	var out []string
	for _, part := range strings.Split(f.workers, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// SweepFlags is the flag block of the two commands that sweep PE counts
// over generated or file-backed instances on internal/bench's harness
// (mstbench, mstverify), the observability and transport flags included.
type SweepFlags struct {
	*Flags
	// Input and Format are the -input and -format values.
	Input, Format string

	tp       *TransportFlags
	ps, algs string
	timeout  time.Duration
}

// RegisterSweep declares the block on the default flag set; defaultPs is
// the command's default -ps list. Call before flag.Parse.
func RegisterSweep(defaultPs ...int) *SweepFlags {
	f := &SweepFlags{Flags: Register(), tp: RegisterTransport()}
	ps := make([]string, len(defaultPs))
	for i, p := range defaultPs {
		ps[i] = strconv.Itoa(p)
	}
	flag.StringVar(&f.ps, "ps", strings.Join(ps, ","), "comma-separated PE counts")
	flag.StringVar(&f.algs, "alg", "", "comma-separated algorithms for the sweep (mstbench: -input runs only), from: "+
		kamsta.AlgorithmNames()+" (default: all distributed algorithms)")
	flag.StringVar(&f.Input, "input", "", "run on a graph file instead of generated instances")
	flag.StringVar(&f.Format, "format", "auto", "input format: kamsta, edgelist, gr, metis, auto")
	flag.DurationVar(&f.timeout, "timeout", 0,
		"per-job deadline: each job runs under context.WithTimeout (0 = none)")
	return f
}

// Scale resolves the block into the harness half of a bench.Scale — PE
// counts, timeout, transport, sinks; call it inside Run's body, after
// Activate — and the -alg list (nil = the harness default set). A bad -ps
// or -alg is a usage error, found before any world is started.
func (f *SweepFlags) Scale() (bench.Scale, []kamsta.Algorithm, error) {
	ps, err := ParsePEs(f.ps)
	if err != nil {
		return bench.Scale{}, nil, Usagef("bad -ps: %v", err)
	}
	algs, err := ParseDistributedAlgs(f.algs)
	if err != nil {
		return bench.Scale{}, nil, Usagef("bad -alg: %v", err)
	}
	return bench.Scale{
		Ps: ps, Timeout: f.timeout,
		Transport: f.tp.Transport, Workers: f.tp.Workers(),
		Metrics: f.Registry, Trace: f.Trace,
	}, algs, nil
}

// writeOut writes one output to path ("-" = stdout).
func writeOut(path string, emit func(io.Writer) error) error {
	if path == "-" {
		return emit(os.Stdout)
	}
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ParsePEs parses a -ps value: a comma-separated, non-empty list of PE
// counts ≥ 1.
func ParsePEs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad PE count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// ParseDistributedAlgs resolves an -alg value before any world is started;
// unknown names error out listing the valid ones, and empty means the
// caller's default set. The sequential reference is refused: it is the
// oracle mstverify checks against and has no modeled machine for mstbench
// to report.
func ParseDistributedAlgs(s string) ([]kamsta.Algorithm, error) {
	out, err := kamsta.ParseAlgorithmList(s)
	if err != nil {
		return nil, err
	}
	for _, a := range out {
		if a == kamsta.AlgKruskal {
			return nil, fmt.Errorf("kruskal is the sequential reference (the oracle, no modeled machine); pick distributed algorithms")
		}
	}
	return out, nil
}
