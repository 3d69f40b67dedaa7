package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SpanKind classifies one trace record.
type SpanKind uint8

const (
	// SpanPhaseBegin / SpanPhaseEnd bracket one phase on one PE. Name is
	// the phase name; Clock is the modeled clock at the boundary.
	SpanPhaseBegin SpanKind = iota + 1
	SpanPhaseEnd
	// SpanRound marks the start of one Borůvka round on one PE. Round is
	// the 1-based round number, Vertices the live vertex count.
	SpanRound
	// SpanCollective is one completed superstep on one PE. Name is the
	// operation (Allreduce, Alltoall, ...), Dur the wall time spent inside
	// it (dominated by barrier wait), Clock the modeled clock at entry.
	SpanCollective
)

func (k SpanKind) String() string {
	switch k {
	case SpanPhaseBegin:
		return "phaseBegin"
	case SpanPhaseEnd:
		return "phaseEnd"
	case SpanRound:
		return "round"
	case SpanCollective:
		return "collective"
	}
	return "unknown"
}

// Span is one trace record. Spans are recorded per PE into a Ring with no
// allocation: Name is always a pre-existing constant string (phase names,
// opNames) so appending a Span copies a header, never the bytes.
type Span struct {
	Kind     SpanKind
	Rank     int32
	Round    int32   // Borůvka round in flight (0 before the first round)
	Vertices int64   // SpanRound only: live vertex count
	Name     string  // phase or collective name
	Start    int64   // ns since the Trace epoch
	Dur      int64   // ns; SpanCollective only
	Clock    float64 // modeled clock (seconds) at the record point
}

// Ring is a fixed-capacity single-producer span buffer. Exactly one PE
// goroutine appends; nobody reads until the job has joined (the WaitGroup
// in RunJob gives the happens-before edge). When full it overwrites the
// oldest records — for diagnosing a slow or wedged job the tail is what
// matters — and counts what it dropped.
type Ring struct {
	spans []Span
	n     int64 // total appended since Reset
}

// NewRing returns a ring holding up to capacity spans.
func NewRing(capacity int) *Ring { return &Ring{spans: make([]Span, capacity)} }

// Reset discards all records. Called by the owning PE at job start.
func (r *Ring) Reset() { r.n = 0 }

// Append records one span. Never allocates.
func (r *Ring) Append(s Span) {
	r.spans[r.n%int64(len(r.spans))] = s
	r.n++
}

// Dropped returns how many spans were overwritten since Reset.
func (r *Ring) Dropped() int64 {
	if d := r.n - int64(len(r.spans)); d > 0 {
		return d
	}
	return 0
}

// drain appends the retained spans, oldest first, to dst.
func (r *Ring) drain(dst []Span) []Span {
	if r.n <= int64(len(r.spans)) {
		return append(dst, r.spans[:r.n]...)
	}
	head := r.n % int64(len(r.spans))
	dst = append(dst, r.spans[head:]...)
	return append(dst, r.spans[:head]...)
}

// Trace accumulates spans across one or more jobs. Rings are drained into
// it under a mutex on the graceful completion path of each PE; the hot
// path never touches it. A single Trace can span a whole benchmark sweep —
// the epoch is set at the first job and all timestamps share it.
type Trace struct {
	mu      sync.Mutex
	epoch   time.Time
	p       int
	jobs    int
	spans   []Span
	dropped int64
}

// DefaultRingCap is each PE's span ring capacity per job (≈ 1.1 MiB/PE);
// past it the oldest spans are overwritten and counted as dropped.
const DefaultRingCap = 1 << 14

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// StartJob records that a job over p PEs is starting and returns the trace
// epoch (set on first use) that all span timestamps are relative to.
func (t *Trace) StartJob(p int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch.IsZero() {
		t.epoch = time.Now()
	}
	if p > t.p {
		t.p = p
	}
	t.jobs++
	return t.epoch
}

// Collect drains one PE's ring into the trace. Called once per PE per job,
// after the PE has flushed — never concurrently with that PE appending.
func (t *Trace) Collect(r *Ring) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = r.drain(t.spans)
	t.dropped += r.Dropped()
}

// Spans returns a copy of all collected spans sorted by start time.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped returns how many spans were lost to ring overflow.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteChromeJSON renders the trace in the Chrome trace_event format
// (load via chrome://tracing or https://ui.perfetto.dev). One process,
// one thread per PE; phases are B/E duration events, collectives are X
// complete events, rounds are instant events.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	spans := t.Spans()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",")
		}
		first = false
		bw.WriteString("\n  ")
		bw.WriteString(s)
	}
	for _, s := range spans {
		ts := float64(s.Start) / 1e3 // Chrome wants microseconds
		switch s.Kind {
		case SpanPhaseBegin:
			emit(fmt.Sprintf(`{"name":%s,"cat":"phase","ph":"B","pid":0,"tid":%d,"ts":%s,"args":{"clock_s":%s}}`,
				strconv.Quote(s.Name), s.Rank, formatFloat(ts), formatFloat(s.Clock)))
		case SpanPhaseEnd:
			emit(fmt.Sprintf(`{"name":%s,"cat":"phase","ph":"E","pid":0,"tid":%d,"ts":%s,"args":{"clock_s":%s}}`,
				strconv.Quote(s.Name), s.Rank, formatFloat(ts), formatFloat(s.Clock)))
		case SpanRound:
			emit(fmt.Sprintf(`{"name":"round %d","cat":"round","ph":"i","s":"t","pid":0,"tid":%d,"ts":%s,"args":{"vertices":%d,"clock_s":%s}}`,
				s.Round, s.Rank, formatFloat(ts), s.Vertices, formatFloat(s.Clock)))
		case SpanCollective:
			emit(fmt.Sprintf(`{"name":%s,"cat":"collective","ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"round":%d,"clock_s":%s}}`,
				strconv.Quote(s.Name), s.Rank, formatFloat(ts), formatFloat(float64(s.Dur)/1e3), s.Round, formatFloat(s.Clock)))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// aggRow is one aggregation row in the summary tables.
type aggRow struct {
	count   int64
	wallNS  int64
	maxNS   int64
	maxRank int32
	modeled float64
}

// WriteSummary renders a human-readable aggregate: wall and modeled time
// per phase with the slowest PE, wall time per collective kind, and the
// per-round timeline as seen by rank 0 — "which round, which collective,
// which PE is slow" in one screen.
func (t *Trace) WriteSummary(w io.Writer) error {
	t.mu.Lock()
	p, jobs, nspans, dropped := t.p, t.jobs, len(t.spans), t.dropped
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace summary: p=%d jobs=%d spans=%d dropped=%d\n", p, jobs, nspans, dropped)

	// Phases: match Begin/End per rank with a stack; attribute wall time
	// to the innermost open frame.
	type open struct {
		name  string
		start int64
		clock float64
	}
	stacks := map[int32][]open{}
	phases := map[string]*aggRow{}
	var phaseOrder []string
	colls := map[string]*aggRow{}
	var collOrder []string
	type roundRow struct {
		round    int32
		vertices int64
		start    int64
		clock    float64
	}
	var rounds []roundRow
	for _, s := range spans {
		switch s.Kind {
		case SpanPhaseBegin:
			stacks[s.Rank] = append(stacks[s.Rank], open{s.Name, s.Start, s.Clock})
		case SpanPhaseEnd:
			st := stacks[s.Rank]
			if len(st) == 0 {
				continue // truncated ring: end without begin
			}
			fr := st[len(st)-1]
			stacks[s.Rank] = st[:len(st)-1]
			row := phases[fr.name]
			if row == nil {
				row = &aggRow{}
				phases[fr.name] = row
				phaseOrder = append(phaseOrder, fr.name)
			}
			row.count++
			d := s.Start - fr.start
			row.wallNS += d
			if d > row.maxNS {
				row.maxNS, row.maxRank = d, s.Rank
			}
			row.modeled += s.Clock - fr.clock
		case SpanCollective:
			row := colls[s.Name]
			if row == nil {
				row = &aggRow{}
				colls[s.Name] = row
				collOrder = append(collOrder, s.Name)
			}
			row.count++
			row.wallNS += s.Dur
			if s.Dur > row.maxNS {
				row.maxNS, row.maxRank = s.Dur, s.Rank
			}
		case SpanRound:
			if s.Rank == 0 {
				rounds = append(rounds, roundRow{s.Round, s.Vertices, s.Start, s.Clock})
			}
		}
	}

	if len(phaseOrder) > 0 {
		fmt.Fprintf(bw, "\n%-28s %8s %12s %12s %9s %14s\n",
			"phase", "count", "wall(sum)", "wall(max)", "slowestPE", "modeled(sum)")
		for _, name := range phaseOrder {
			r := phases[name]
			fmt.Fprintf(bw, "%-28s %8d %12s %12s %9d %14s\n", name, r.count,
				fmtDur(r.wallNS), fmtDur(r.maxNS), r.maxRank, fmtSec(r.modeled))
		}
	}
	if len(collOrder) > 0 {
		fmt.Fprintf(bw, "\n%-28s %8s %12s %12s %9s\n",
			"collective", "count", "wall(sum)", "wall(max)", "slowestPE")
		for _, name := range collOrder {
			r := colls[name]
			fmt.Fprintf(bw, "%-28s %8d %12s %12s %9d\n", name, r.count,
				fmtDur(r.wallNS), fmtDur(r.maxNS), r.maxRank)
		}
	}
	if len(rounds) > 0 {
		fmt.Fprintf(bw, "\n%-8s %12s %14s %14s\n", "round", "vertices", "wall@start", "clock@start")
		for _, r := range rounds {
			fmt.Fprintf(bw, "%-8d %12d %14s %14s\n", r.round, r.vertices, fmtDur(r.start), fmtSec(r.clock))
		}
	}
	return bw.Flush()
}

func fmtDur(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }

func fmtSec(s float64) string { return strconv.FormatFloat(s, 'g', 6, 64) + "s" }
