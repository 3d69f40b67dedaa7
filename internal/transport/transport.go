// Package transport defines the narrow substrate interface the comm
// collectives bottom out on: per-rank deposit exchange with a combining
// barrier. One superstep, from every participating rank, is exactly one
// Exchange call — deposit a value, block until all p ranks have arrived,
// and return the fully-populated board plus the combined slot (folded
// clock, verdict, optional combined value) computed exactly once while
// everyone is blocked.
//
// Two backends implement it: internal/transport/shm is the in-process
// shared-memory substrate (double-buffered boards under a fan-in tree
// barrier — the original comm implementation, extracted verbatim), and
// internal/transport/tcp spans processes by electing one process the
// leader and completing each superstep over persistent length-prefixed
// socket frames. The modeled α-β clock, message counts and byte charges
// are computed from deposit metadata identically on every backend, so a
// job's modeled time is bit-identical regardless of transport.
package transport

import "kamsta/internal/enc"

// Verdict values published in a Slot. They mirror the comm package's job
// verdicts: run means proceed, cancel and abort unwind cooperatively.
const (
	VerdictRun    uint8 = 0
	VerdictCancel uint8 = 1
	VerdictAbort  uint8 = 2
)

// Deposit is one rank's contribution to a superstep: the collective tag,
// the rank's modeled clock at entry, and the deposited value, nil or a *T.
// Codec, the codec of T, names how the value crosses a process boundary; it
// is nil on purely local paths and for valueless deposits (barriers). A
// remote rank's value arrives as a *T too, decoded into the receiving
// link's memory. The padding keeps neighbouring ranks' deposits on distinct
// cache lines on the shared-memory backend.
type Deposit struct {
	Tag   uint32
	Clock float64
	Val   any
	Codec *enc.Codec
	_     [24]byte
}

// Slot is the combined result of a superstep, computed once by the
// completing party and read by all ranks: the maximum entry clock, the
// combine closure's value (if any), and the verdict.
type Slot struct {
	ClockMax float64
	Val      any
	Verdict  uint8
}

// RemoteFault describes a fault recorded on another process, shipped to
// the leader so the job's primary error is chosen over all processes.
type RemoteFault struct {
	Kind      uint8
	Rank      int32
	Superstep int32
	Round     int32
	Phase     string
	Panic     string
	Stack     string
}

// Flags is a snapshot of a process's job-control state at a superstep
// boundary: pending cancellation or abort, plus faults not yet shipped.
type Flags struct {
	Cancel bool
	Abort  bool
	Faults []RemoteFault
}

// Host is the comm layer's side of the contract: the transport calls back
// into it to complete a superstep. All methods may be called from whichever
// goroutine completes the barrier.
type Host interface {
	// Flags snapshots local job-control state (cancel/abort requests and
	// unshipped faults) for transmission to the completing process.
	Flags() Flags
	// Complete performs the local completion of a superstep over the fully
	// populated board: fold clocks, determine the verdict from local state
	// unioned with remote, run the pending combine closure, advance the
	// progress counter. Only the process that owns verdict selection (shm:
	// the only process; tcp: the leader) calls Complete.
	Complete(board []Deposit, remote Flags) Slot
	// CompleteWith performs the local completion under a verdict decided
	// elsewhere (tcp: a worker applying the leader's REPLY).
	CompleteWith(board []Deposit, verdict uint8) Slot
	// RemoteFaults records faults shipped from other processes so they
	// participate in primary-error selection.
	RemoteFaults([]RemoteFault)
	// TransportFault records a transport-level failure (connection loss,
	// corrupt frame, deadline) as a job fault; the transport then publishes
	// an abort Slot so local ranks unwind coherently.
	TransportFault(err error)
}

// Transport is the substrate under a comm.World. Implementations are
// created per world and closed with it.
type Transport interface {
	// P is the total number of ranks across all processes.
	P() int
	// Local is the half-open contiguous rank range hosted in this process.
	Local() (lo, hi int)
	// Exchange runs one superstep for a local rank: deposit, await all p
	// ranks, return the populated board for epoch parity and the combined
	// slot. The board is valid until the same parity's next superstep.
	// poisoned reports that the substrate was poisoned instead of
	// completing; board and slot are then meaningless.
	Exchange(rank int, epoch uint64, dep Deposit, h Host) (board []Deposit, slot Slot, poisoned bool)
	// Poison permanently unblocks all waiters; every in-flight and future
	// Exchange returns poisoned. Used when a job is torn down ungracefully.
	Poison()
	// Poisoned reports whether Poison was called.
	Poisoned() bool
	// Drop clears retained deposit values and verdicts between jobs so a
	// finished job's data can be collected. Called with no rank in an
	// Exchange.
	Drop()
	// Close releases transport resources (connections). The transport is
	// unusable afterwards.
	Close() error
}
