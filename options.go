package kamsta

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/faultinject"
)

// Event is one progress notification from a running job: phase begin/end
// (the paper's Fig. 6 breakdown) and distributed-round starts, stamped with
// rank 0's modeled clock (re-exported from the machine simulation; see
// comm.Event).
type Event = comm.Event

// EventKind discriminates observer events.
type EventKind = comm.EventKind

// The observer event kinds.
const (
	EventPhaseBegin = comm.EventPhaseBegin
	EventPhaseEnd   = comm.EventPhaseEnd
	EventRound      = comm.EventRound
)

// Observer receives progress events from a running job — the production
// observability hook. It is invoked synchronously on the simulation's PE-0
// goroutine: implementations must be fast, must not block, and must not
// call back into the Machine. Cancelling the job's context from an
// observer is allowed (and is the natural way to abort a run that exceeds
// a round budget).
type Observer = comm.Observer

// runSettings is the resolved per-job configuration: everything about one
// computation that is not a property of the Machine itself.
type runSettings struct {
	alg    Algorithm
	seed   uint64
	core   core.Options
	obs    Observer
	trace  *Trace
	stall  time.Duration
	inject *faultinject.Plan
}

// RunOption configures one Compute call on a Machine. Machine-scoped
// settings (PEs, threads, cost model) live in MachineConfig; everything
// per-job is a RunOption.
type RunOption func(*runSettings)

// WithAlgorithm selects the MST algorithm for this job. The zero value ""
// leaves the default (AlgBoruvka).
func WithAlgorithm(a Algorithm) RunOption {
	return func(rs *runSettings) {
		if a != "" {
			rs.alg = a
		}
	}
}

// WithSeed sets the seed driving generation and sampling for this job (used
// when the GraphSpec or core options don't set their own).
func WithSeed(seed uint64) RunOption {
	return func(rs *runSettings) { rs.seed = seed }
}

// WithCoreOptions tunes the paper's algorithms for this job. Without it a
// job runs core.Options' zero value, which is the configuration the paper
// evaluates.
func WithCoreOptions(o core.Options) RunOption {
	return func(rs *runSettings) { rs.core = o }
}

// WithObserver streams the job's phase and round events to obs. The
// Observer is a live view over the same structured record stream the span
// tracer (WithTrace) persists: both are fed from one tap at phase and round
// boundaries, so they can never disagree.
func WithObserver(obs Observer) RunOption {
	return func(rs *runSettings) { rs.obs = obs }
}

// WithStallTimeout arms a stall watchdog for this job: if no collective
// completes for d, the job aborts with a *JobError reporting which ranks
// reached the stalled superstep's barrier and which did not, and the
// machine rebuilds its world before the next job. Zero (the default)
// disables detection; pick d comfortably above the longest legitimate gap
// between collectives (local compute between supersteps counts toward it).
func WithStallTimeout(d time.Duration) RunOption {
	return func(rs *runSettings) {
		if d > 0 {
			rs.stall = d
		}
	}
}

// WithFaultInjection arms this job with a deterministic fault-injection
// plan (see internal/faultinject): seeded rules that panic, delay, or fail
// a read at chosen ranks and supersteps. It exists for the chaos test
// suite and for reproducing a containment bug from its seed; the plan type
// is internal on purpose — production code has no business injecting
// faults.
func WithFaultInjection(plan *faultinject.Plan) RunOption {
	return func(rs *runSettings) { rs.inject = plan }
}

// AlgorithmNames returns the supported algorithm names, sorted, as one
// comma-separated string — the single source of truth shared by CLI flag
// help text and ParseAlgorithm's error message.
func AlgorithmNames() string {
	known := make([]string, 0, len(Algorithms()))
	for _, a := range Algorithms() {
		known = append(known, string(a))
	}
	sort.Strings(known)
	return strings.Join(known, ", ")
}

// ParseAlgorithm resolves a case-insensitive algorithm name, with an error
// listing the valid names for unknown input.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(string(a), name) {
			return a, nil
		}
	}
	return "", fmt.Errorf("kamsta: unknown algorithm %q (known: %s)", name, AlgorithmNames())
}

// ParseAlgorithmList resolves a comma-separated list of algorithm names
// via ParseAlgorithm (case-insensitive; empty parts skipped). An empty
// list returns nil — callers substitute their default set.
func ParseAlgorithmList(s string) ([]Algorithm, error) {
	var out []Algorithm
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		a, err := ParseAlgorithm(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// DistributedAlgorithms lists the distributed algorithms — Algorithms()
// minus the sequential reference. It is the default sweep set of the
// benchmarking and verification commands.
func DistributedAlgorithms() []Algorithm {
	out := make([]Algorithm, 0, len(Algorithms())-1)
	for _, a := range Algorithms() {
		if a != AlgKruskal {
			out = append(out, a)
		}
	}
	return out
}
