package kamsta

import "kamsta/internal/comm"

// FaultKind classifies a contained job failure (re-exported from the
// machine simulation; see comm.FaultKind).
type FaultKind = comm.FaultKind

// The fault kinds a JobError reports.
const (
	// FaultPanic is a recovered PE panic: an algorithm bug, SPMD
	// divergence, or an injected fault. All PEs unwound the same superstep
	// together and the machine stays usable.
	FaultPanic = comm.FaultPanic
	// FaultStall means no collective completed within the job's stall
	// timeout (WithStallTimeout); the world was torn down and rebuilt.
	FaultStall = comm.FaultStall
	// FaultLostPE means a PE goroutine died without completing its job;
	// the world was torn down and rebuilt.
	FaultLostPE = comm.FaultLostPE
	// FaultTransport means the machine's transport failed mid-job (a lost
	// worker connection, a corrupt frame, an expired wire deadline). Only
	// distributed machines (MachineConfig.Transport "tcp") report it; the
	// machine is condemned, not rebuilt — see Machine.Healthy.
	FaultTransport = comm.FaultTransport
)

// JobError is the structured report of a job that failed inside the
// simulated machine — a contained PE panic, a stalled collective, a lost PE
// goroutine or a failed transport. The process never crashes for a
// job-scoped failure: Compute returns a *JobError, and the Machine either
// verifies its world clean for reuse or rebuilds it transparently before
// the next job (Rebuilt records which).
type JobError struct {
	// JobError is the simulation's own fault report, carried as it was
	// raised: Kind, Rank (-1 for stalls), Superstep, Phase, Round,
	// PanicValue and Stack (panics), Arrived and Missing (stalls), Faults
	// (how many PEs faulted; this is the first) and Remote (the fault
	// happened on a worker process of a distributed machine).
	*comm.JobError
	// Rebuilt reports that the fault left the world unusable (or failing
	// its health probe) and the Machine transparently rebuilt it. The
	// machine is healthy again either way; Rebuilt only records the cost.
	// Distributed worlds are never rebuilt; see FaultTransport.
	Rebuilt bool
}

// Error is the simulation's message, plus the recovery cost.
func (e *JobError) Error() string {
	if e.Rebuilt {
		return e.JobError.Error() + " [machine rebuilt]"
	}
	return e.JobError.Error()
}

// Unwrap exposes the underlying comm.JobError (for errors.As in tests and
// tooling that works below the public API).
func (e *JobError) Unwrap() error { return e.JobError }
