package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("jobs_total", "jobs", L("state", "done"))
	c2 := r.Counter("jobs_total", "jobs", L("state", "done"))
	if c1 != c2 {
		t.Fatal("same (name, labels) must resolve to the same counter")
	}
	c3 := r.Counter("jobs_total", "jobs", L("state", "failed"))
	if c1 == c3 {
		t.Fatal("different labels must resolve to different counters")
	}
	// Label order must not matter.
	g1 := r.Gauge("depth", "", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("depth", "", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Fatal("label order must not distinguish series")
	}
	// Kind clash panics.
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name should panic")
		}
	}()
	r.Gauge("jobs_total", "")
}

func TestRegistryConcurrentResolve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Set(int64(i))
				r.Histogram("h", "", []float64{1, 10}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("h", "", []float64{1, 10}).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("kamsta_jobs_total", "Jobs seen.", L("state", "completed")).Add(3)
	r.Gauge("kamsta_queue_depth", "Waiting jobs.").Set(2)
	r.FloatCounter("kamsta_modeled_seconds_total", "").Add(1.5)
	h := r.Histogram("kamsta_wait_seconds", "Queue wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("kamsta_rebuilds", "", func() float64 { return 7 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE kamsta_jobs_total counter",
		`kamsta_jobs_total{state="completed"} 3`,
		"kamsta_queue_depth 2",
		"kamsta_modeled_seconds_total 1.5",
		`kamsta_wait_seconds_bucket{le="0.1"} 1`,
		`kamsta_wait_seconds_bucket{le="1"} 2`,
		`kamsta_wait_seconds_bucket{le="+Inf"} 3`,
		"kamsta_wait_seconds_sum 5.55",
		"kamsta_wait_seconds_count 3",
		"kamsta_rebuilds 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRingOverflowKeepsTail(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Span{Start: int64(i)})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	spans := r.drain(nil)
	if len(spans) != 4 {
		t.Fatalf("drained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Start != int64(6+i) {
			t.Fatalf("span %d has Start %d, want %d (oldest-first tail)", i, s.Start, 6+i)
		}
	}
	r.Reset()
	if r.Dropped() != 0 || len(r.drain(nil)) != 0 {
		t.Fatal("Reset must clear the ring")
	}
}

func TestRingAppendDoesNotAllocate(t *testing.T) {
	r := NewRing(64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Append(Span{Kind: SpanCollective, Name: "Allreduce", Start: 1, Dur: 2})
	})
	if allocs != 0 {
		t.Fatalf("Ring.Append allocates %v times per op, want 0", allocs)
	}
}

func TestTraceChromeJSONAndSummary(t *testing.T) {
	tr := NewTrace()
	tr.StartJob(2)
	ring := NewRing(16)
	ring.Append(Span{Kind: SpanPhaseBegin, Rank: 0, Name: "contract", Start: 100, Clock: 0.5})
	ring.Append(Span{Kind: SpanRound, Rank: 0, Round: 1, Vertices: 42, Start: 150, Clock: 0.6})
	ring.Append(Span{Kind: SpanCollective, Rank: 0, Name: "Alltoall", Start: 200, Dur: 50, Clock: 0.7})
	ring.Append(Span{Kind: SpanPhaseEnd, Rank: 0, Name: "contract", Start: 300, Clock: 0.9})
	tr.Collect(ring)

	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d trace events, want 4", len(doc.TraceEvents))
	}

	sb.Reset()
	if err := tr.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"contract", "Alltoall", "round", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
