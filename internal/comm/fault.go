package comm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"kamsta/internal/transport"
)

// This file is the world's failure model: the structured error a contained
// fault surfaces (JobError), the classification of faults (FaultKind), the
// stall watchdog, and the broken-world state a fault the cooperative
// protocol cannot resolve leaves behind. The containment protocol itself
// lives next to the code it guards: verdict publication in preRelease,
// sentinel unwinding in deposit, panic recovery and the abort drain in
// runPE (see job.go for the protocol narrative).

// FaultKind classifies a contained job failure.
type FaultKind uint8

const (
	// FaultPanic is a recovered PE panic (algorithm bug, SPMD divergence,
	// injected fault, or a panic inside a collective's combine closure).
	// The world unwound cooperatively and remains usable.
	FaultPanic FaultKind = iota + 1
	// FaultStall means no collective completed within the job's stall
	// timeout; the watchdog poisoned the world, which must be rebuilt.
	FaultStall
	// FaultLostPE means a PE goroutine died without reporting an outcome
	// (runtime.Goexit from algorithm code, or an escape from the
	// containment recovery itself); the world is down a party and was
	// poisoned — it must be rebuilt.
	FaultLostPE
	// FaultTransport means the substrate connecting this world to its
	// remote rank blocks failed mid-job — a worker connection dropped, a
	// frame arrived corrupt, or a read deadline expired. The local ranks
	// unwound coherently (abort verdict), but the world's remote half is
	// unreachable: the world reports Broken and must be replaced.
	FaultTransport
)

// String names the kind for logs.
func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	case FaultLostPE:
		return "lostPE"
	case FaultTransport:
		return "transport"
	}
	return "(unknown fault)"
}

// JobError is the structured report of a contained job failure: which PE
// faulted, where it was in the program (superstep, phase, distributed
// round), and what happened. It is the error RunJobCfg returns instead of
// letting the fault crash the process.
type JobError struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Rank is the faulting PE, or -1 when no single rank is responsible
	// (stalls).
	Rank int
	// Superstep is the faulting PE's collective count at the fault — for
	// stalls, the stalled superstep's job-relative arrival index.
	Superstep int
	// Phase is the innermost open phase on the faulting PE ("" if none).
	Phase string
	// Round is the last distributed round the faulting PE entered (0 before
	// the first round; see Comm.EmitRound).
	Round int
	// PanicValue and Stack capture a FaultPanic's recovered value and the
	// faulting goroutine's stack at the panic site.
	PanicValue any
	Stack      string
	// Arrived and Missing are a FaultStall's diagnosis: the ranks that
	// reached the stalled superstep's barrier, and the ranks that did not.
	Arrived []int
	Missing []int
	// Faults is the total number of faults the job recorded (> 1 when
	// several PEs faulted before the world finished unwinding); this
	// JobError is the first.
	Faults int
	// Remote marks a fault that happened in another process of a
	// distributed world and was shipped here with the superstep flags; Rank
	// is then the remote global rank, and PanicValue/Stack are the remote
	// process's formatted strings.
	Remote bool
}

// Error formats the fault for humans; the fields carry the structure.
func (e *JobError) Error() string {
	where := ""
	if e.Remote {
		where = " (remote)"
	}
	switch e.Kind {
	case FaultStall:
		return fmt.Sprintf("comm: job stalled at superstep %d: ranks %v reached the barrier, ranks %v did not",
			e.Superstep, e.Arrived, e.Missing)
	case FaultLostPE:
		return fmt.Sprintf("comm: PE %d%s lost: goroutine exited without completing its job (panic value: %v)",
			e.Rank, where, e.PanicValue)
	case FaultTransport:
		return fmt.Sprintf("comm: transport failed at superstep %d (rank %d%s): %v",
			e.Superstep, e.Rank, where, e.PanicValue)
	}
	msg := fmt.Sprintf("comm: PE %d%s panicked at superstep %d", e.Rank, where, e.Superstep)
	if e.Phase != "" {
		msg += fmt.Sprintf(" (phase %q, round %d)", e.Phase, e.Round)
	}
	return fmt.Sprintf("%s: %v", msg, e.PanicValue)
}

// wire converts the fault to its transport form for shipping to the
// verdict-deciding process. PanicValue flattens to its formatted string —
// the concrete value is process-local anyway.
func (e *JobError) wire() transport.RemoteFault {
	var pv string
	if e.PanicValue != nil {
		pv = fmt.Sprint(e.PanicValue)
	}
	return transport.RemoteFault{
		Kind:      uint8(e.Kind),
		Rank:      int32(e.Rank),
		Superstep: int32(e.Superstep),
		Round:     int32(e.Round),
		Phase:     e.Phase,
		Panic:     pv,
		Stack:     e.Stack,
	}
}

// remoteJobError rebuilds a shipped fault as a local JobError marked
// Remote.
func remoteJobError(f *transport.RemoteFault) *JobError {
	je := &JobError{
		Kind:      FaultKind(f.Kind),
		Rank:      int(f.Rank),
		Superstep: int(f.Superstep),
		Round:     int(f.Round),
		Phase:     f.Phase,
		Stack:     f.Stack,
		Remote:    true,
	}
	if f.Panic != "" {
		je.PanicValue = f.Panic
	}
	return je
}

// ErrBroken is returned by RunJobCfg on a world that was poisoned by an
// earlier fault (stall or lost PE) and not rebuilt. Check World.Broken
// after a failed job; a broken world runs no further jobs.
var ErrBroken = errors.New("comm: world is broken (poisoned by an earlier fault) and must be rebuilt")

// Broken reports whether the world has been poisoned by a fault the
// cooperative containment protocol could not resolve — a stalled
// collective or a lost PE goroutine. A broken world must not run further
// jobs; its owner discards it and builds a fresh one (the public Machine
// does this transparently).
func (w *World) Broken() bool { return w.broken.Load() }

// markBroken poisons the world: the transport releases every current and
// future waiter with the poisoned signal, so blocked PEs unwind instead of
// deadlocking behind a party that will never arrive.
func (w *World) markBroken() {
	w.broken.Store(true)
	w.tr.Poison()
}

// recordPanicFault captures a recovered panic on this PE as a structured
// fault. Called during deferred recovery, so debug.Stack still shows the
// panic site's frames (deferred functions run before the stack unwinds).
func (c *Comm) recordPanicFault(r any) {
	je := &JobError{
		Kind:       FaultPanic,
		Rank:       c.rank,
		Superstep:  int(c.epoch),
		Round:      c.round,
		PanicValue: r,
		Stack:      string(debug.Stack()),
	}
	if n := len(c.ph.stack); n > 0 {
		je.Phase = c.ph.stack[n-1].name
	}
	c.jb.recordFault(je)
}

// watchdog is the per-job stall detector: it samples the world's superstep
// progress counter and, if no collective completes within timeout, records
// a FaultStall with per-rank arrival diagnostics, requests an abort (in
// case the world is still cooperating), poisons the world (in case it is
// not), and signals RunJobCfg via jb.stalled.
func (w *World) watchdog(jb *worldJob, base []int64, timeout time.Duration, stop, done chan struct{}) {
	defer close(done)
	interval := timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := w.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			cur := w.progress.Load()
			if cur != last {
				last, lastChange = cur, now
				continue
			}
			if now.Sub(lastChange) < timeout {
				continue
			}
			jb.recordFault(w.stallError(base))
			jb.abortReq.Store(true)
			w.markBroken()
			close(jb.stalled)
			return
		}
	}
}

// stallError snapshots the per-rank arrival high-water marks into a stall
// diagnosis: ranks at the maximum reached the stalled superstep's barrier,
// the rest never arrived there.
func (w *World) stallError(base []int64) *JobError {
	marks := make([]int64, w.p)
	var top int64
	for r := range marks {
		marks[r] = w.arrived[r].v.Load() - base[r]
		if marks[r] > top {
			top = marks[r]
		}
	}
	je := &JobError{Kind: FaultStall, Rank: -1, Superstep: int(top)}
	for r, m := range marks {
		if m == top {
			je.Arrived = append(je.Arrived, r)
		} else {
			je.Missing = append(je.Missing, r)
		}
	}
	return je
}
