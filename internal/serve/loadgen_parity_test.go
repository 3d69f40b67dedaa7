package serve_test

import (
	"context"
	"maps"
	"net/http/httptest"
	"testing"
	"time"

	"kamsta/internal/obs"
	"kamsta/internal/serve"
	"kamsta/internal/serve/loadgen"
)

// overTheWire submits in-process — chaos rides in Request.Options — and
// waits through serve.Client, so every result loadgen classifies has crossed
// HTTP.
type overTheWire struct {
	s *serve.Server
	c *serve.Client
}

func (tg overTheWire) Submit(_ context.Context, req serve.Request) (loadgen.Handle, error) {
	j, err := tg.s.Submit(req)
	if err != nil {
		return nil, err
	}
	return tg.c.Attach(j.ID()), nil
}

// TestLoadgenOutcomesAgree runs one seeded chaos plan twice, reading results
// in-process and over HTTP: loadgen's outcome histogram must be the same
// both times, and each time equal to the server's own completion counter.
func TestLoadgenOutcomesAgree(t *testing.T) {
	plan := loadgen.Plan{
		Seed: 5,
		Tenants: []loadgen.TenantLoad{{
			Name: "chaos", Workers: 3, Jobs: 60,
			Template: loadgen.Template{
				EdgeCount: 48, Vertices: 24,
				Chaos: &loadgen.ChaosSpec{FaultFraction: 0.25, StallFraction: 0.1, StormFraction: 0.15, PEs: 2},
			},
		}},
	}
	run := func(t *testing.T, target func(*serve.Server, *serve.Client) loadgen.Target) map[string]int {
		t.Helper()
		reg := obs.NewRegistry()
		s, err := serve.New(serve.Config{
			Pool:           []serve.PoolShape{{PEs: 2, Threads: 1, Count: 2}},
			ShedMinSamples: -1, // a storm job is admitted and misses its deadline, never shed
			Metrics:        reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		c := &serve.Client{BaseURL: ts.URL, PollWait: 250 * time.Millisecond}
		res, err := loadgen.Run(context.Background(), target(s, c), plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Fatal(err)
		}
		got := res.Tenants[0].Outcomes
		counted := map[string]int{}
		for outcome := range got {
			counted[outcome] = int(reg.Counter("serve_jobs_completed_total", "",
				obs.L("tenant", "chaos"), obs.L("outcome", outcome)).Value())
		}
		if !maps.Equal(got, counted) {
			t.Errorf("loadgen tallied %v, the server counted %v", got, counted)
		}
		if st := s.Stats(); int(st.Tenants[0].Completed) != res.Tenants[0].Completed() {
			t.Errorf("server completed %d jobs, loadgen tallied %v", st.Tenants[0].Completed, got)
		}
		return got
	}
	local := run(t, func(s *serve.Server, _ *serve.Client) loadgen.Target { return loadgen.Local(s) })
	remote := run(t, func(s *serve.Server, c *serve.Client) loadgen.Target { return overTheWire{s, c} })
	if !maps.Equal(local, remote) {
		t.Errorf("same plan, different histograms:\n in-process %v\n over HTTP  %v", local, remote)
	}
	for _, want := range []string{"ok", "fault", "deadline"} {
		if local[want] == 0 {
			t.Errorf("the plan produced no %q outcome: %v", want, local)
		}
	}
}
