// Package cliobs wires the flags shared by the kamsta commands: the
// observability trio -metrics, -trace, and -pprof (each command registers
// them, activates the sinks after flag.Parse, threads the registry/trace
// into its machines or worlds, and flushes on exit), the distributed-
// machine pair -transport and -workers, and the parsers of the -ps and -alg
// lists.
package cliobs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	// Register the pprof handlers on http.DefaultServeMux; the -pprof
	// server below serves that mux.
	_ "net/http/pprof"

	"kamsta"
	"kamsta/internal/obs"
)

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
		"write metrics on exit: a path (.json = JSON, else Prometheus text) or - for stdout")
	flag.StringVar(&f.TracePath, "trace", "",
		"record a span trace and write it on exit: a path (.json = Chrome trace_event, else text summary) or - for stdout")
	flag.StringVar(&f.PprofAddr, "pprof", "",
		"serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	return f
}

// Activate builds the sinks the parsed flags ask for and starts the -pprof
// server. Call once, after flag.Parse and before any machine or world is
// created.
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

// Flush writes the metrics and trace outputs the flags asked for. Call once
// on the way out, after all jobs have completed.
func (f *Flags) Flush() error {
	if f.MetricsPath != "" {
		if err := writeOut(f.MetricsPath, func(w *os.File) error {
			if strings.HasSuffix(f.MetricsPath, ".json") {
				return f.Registry.WriteJSON(w)
			}
			return f.Registry.WritePrometheus(w)
		}); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if f.TracePath != "" {
		if err := writeOut(f.TracePath, func(w *os.File) error {
			if strings.HasSuffix(f.TracePath, ".json") {
				return f.Trace.WriteChromeJSON(w)
			}
			return f.Trace.WriteSummary(w)
		}); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		if n := f.Trace.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "trace: %d spans dropped (ring capacity %d per rank; raise obs.Trace.CapPerRank)\n",
				n, f.Trace.RingCap())
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

// writeOut opens path for writing ("-" = stdout), runs emit, and closes.
func writeOut(path string, emit func(*os.File) error) error {
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
