package kamsta

import (
	"fmt"
	"time"

	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/enc"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
)

// This file is the job-control wire format of a distributed machine: what
// the leader ships to mstworker processes at job start (wireJobSpec) and
// what each worker reports back at job end (wireJobEnd). The transport
// layer (internal/transport/tcp) treats both as opaque payloads; their
// meaning lives here, next to the Machine that speaks them.

// wireSource describes a Source so a worker can rebuild it. Edge-list
// sources ship no edges: rank 0 — always leader-local — feeds them into
// the world, and every other rank contributes an empty share exactly as it
// does in-process. File sources name a path every worker must also see
// (shared filesystem or identical copies).
type wireSource struct {
	Type   string // "spec" | "file" | "edges" | "none"
	Spec   gen.Spec
	Path   string
	Format string
}

// wireJobSpec is everything a worker needs to run its ranks of one job:
// the resolved per-job settings (post Compute defaulting) plus the source.
// Leader-local concerns — observer, tracer, fault injection — are
// deliberately absent.
type wireJobSpec struct {
	Kind string
	Alg  string
	Seed uint64
	Core core.Options
	// StallMs arms the worker's stall watchdog and sizes both sides' wire
	// deadlines; 0 leaves the watchdog off (deadlines then take defaults).
	StallMs int64
	Source  wireSource
}

// wirePhase is one aggregated phase row of a worker's report: the row as
// comm keeps it (POD, so raw bytes under the codec rule) plus its name.
type wirePhase struct {
	Name string
	comm.PhaseTime
}

// wireShare is one remote rank's MSF edge share.
type wireShare struct {
	Rank  int64
	Edges []graph.Edge
}

// wireJobEnd is a worker's end-of-job report: outcome, flushed metrics for
// its rank block, and (for MSF jobs) each rank's MSF edge share. Faults
// already reached the leader through the superstep flags; Err is the
// worker-side summary for diagnostics.
type wireJobEnd struct {
	OK     bool
	Err    string
	Lo, Hi int64
	Clocks []float64
	Phases []wirePhase
	Stats  comm.Stats
	Shares []wireShare
}

// encodeWire and decodeWire are the job-control frames' codec: the same enc
// walker every deposit crosses the wire with. encodeWire appends *v to dst
// and decodeWire decodes into *dst, so a side that keeps both across jobs
// (remoteScratch, the worker's loop) regrows neither.
func encodeWire[T any](dst []byte, v *T) []byte { return enc.CodecFor[T]().Append(dst, v) }

func decodeWire[T any](what string, b []byte, dst *T) error {
	rest, err := enc.CodecFor[T]().DecodeInto(b, dst)
	if err != nil {
		return fmt.Errorf("kamsta: %s: %w", what, err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("kamsta: %d bytes after %s", len(rest), what)
	}
	return nil
}

// remoteScratch is the leader's job-control memory, used under the job slot
// and kept across jobs: the encoded spec, and one decoded report per
// worker, whose shares the job's share table aliases until run has built
// the Report.
type remoteScratch struct {
	spec []byte
	ends []wireJobEnd
}

// wireSourceOf describes src for shipping; the bool is false for source
// kinds that cannot cross processes (none exist today — every public
// Source maps).
func wireSourceOf(src Source) (wireSource, bool) {
	switch s := src.(type) {
	case specSource:
		return wireSource{Type: "spec", Spec: s.spec}, true
	case fileSource:
		return wireSource{Type: "file", Path: s.path, Format: s.format}, true
	case edgesSource:
		// Rank 0 feeds the edges and is leader-local; remote ranks run the
		// same provide() with an empty share.
		return wireSource{Type: "edges"}, true
	}
	return wireSource{}, false
}

// source rebuilds the worker-side Source.
func (ws wireSource) source() (Source, error) {
	switch ws.Type {
	case "spec":
		return specSource{ws.Spec}, nil
	case "file":
		return fileSource{path: ws.Path, format: ws.Format}, nil
	case "edges":
		return edgesSource{}, nil
	case "none", "":
		return nil, nil
	}
	return nil, fmt.Errorf("kamsta: unknown wire source type %q", ws.Type)
}

// specOf captures a job's worker-relevant settings for the wire.
func specOf(kind string, src Source, rs runSettings) (wireJobSpec, error) {
	spec := wireJobSpec{
		Kind:    kind,
		Alg:     string(rs.alg),
		Seed:    rs.seed,
		Core:    rs.core,
		StallMs: rs.stall.Milliseconds(),
	}
	if src != nil {
		ws, ok := wireSourceOf(src)
		if !ok {
			return wireJobSpec{}, fmt.Errorf("kamsta: source %q cannot run on a distributed machine", src.Label())
		}
		spec.Source = ws
	}
	return spec, nil
}

// settings rebuilds the worker-side runSettings.
func (s wireJobSpec) settings() runSettings {
	return runSettings{
		alg:   Algorithm(s.Alg),
		seed:  s.Seed,
		core:  s.Core,
		stall: time.Duration(s.StallMs) * time.Millisecond,
	}
}

// jobEndOf assembles a worker's report after its ranks finished (or failed)
// a job: outcome, the rank block's flushed clocks, the world's aggregated
// phases and traffic (local ranks only — the leader sums the blocks), and
// the MSF shares.
func jobEndOf(w *comm.World, lo, hi int, j *job, jerr error) wireJobEnd {
	end := wireJobEnd{Lo: int64(lo), Hi: int64(hi)}
	if jerr != nil {
		end.Err = jerr.Error()
		return end
	}
	end.OK = true
	end.Clocks = w.Clocks()[lo:hi]
	for name, pt := range w.Phases() {
		end.Phases = append(end.Phases, wirePhase{name, pt})
	}
	end.Stats = w.TotalStats()
	for r := lo; r < hi; r++ {
		if len(j.shares[r]) > 0 {
			end.Shares = append(end.Shares, wireShare{Rank: int64(r), Edges: j.shares[r]})
		}
	}
	return end
}

// merge folds a worker's report into the leader world's aggregates (the
// same discipline as a local PE flush) and its shares into the job's share
// table.
func (e *wireJobEnd) merge(w *comm.World, shares [][]graph.Edge) error {
	phases := make(map[string]comm.PhaseTime, len(e.Phases))
	for _, ph := range e.Phases {
		phases[ph.Name] = ph.PhaseTime
	}
	w.Merge(int(e.Lo), e.Clocks, phases, e.Stats)
	for _, sh := range e.Shares {
		r := int(sh.Rank)
		if r < 0 || r >= len(shares) {
			return fmt.Errorf("kamsta: worker report names rank %d of %d", r, len(shares))
		}
		shares[r] = sh.Edges
	}
	return nil
}
