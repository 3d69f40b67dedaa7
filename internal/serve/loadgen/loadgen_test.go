package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/obs"
	"kamsta/internal/serve"
)

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestExactlyOnceUnderLoad is the PR's acceptance run: ≥1000 jobs across 3
// tenants against a small in-process pool with batching on, every result
// cross-checked against sequential Kruskal, zero lost or duplicated
// results. CI runs it under -race.
func TestExactlyOnceUnderLoad(t *testing.T) {
	const perTenant = 350 // 3 × 350 = 1050 jobs
	reg := obs.NewRegistry()
	s := newServer(t, serve.Config{
		Pool: []serve.PoolShape{{PEs: 2, Threads: 1, Count: 2}},
		Tenants: []serve.TenantConfig{
			{Name: "alpha", Weight: 3}, {Name: "beta", Weight: 1}, {Name: "gamma", Weight: 1},
		},
		QueueBound:       64, // small bound so back-pressure and retries actually happen
		TenantQueueBound: 32,
		Batch:            serve.BatchConfig{MaxJobs: 8, MaxEdges: 1 << 15},
		Metrics:          reg,
	})
	tmpl := Template{EdgeCount: 48, Vertices: 24, Verify: true}
	plan := Plan{
		Seed: 7,
		Tenants: []TenantLoad{
			{Name: "alpha", Workers: 8, Jobs: perTenant, Template: tmpl},
			{Name: "beta", Workers: 4, Jobs: perTenant, Template: tmpl},
			{Name: "gamma", Workers: 4, Jobs: perTenant, Template: tmpl},
		},
	}
	res, err := Run(context.Background(), Local(s), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Attempted != perTenant || tr.Submitted != perTenant {
			t.Fatalf("tenant %s: attempted %d submitted %d, want %d each (closed loop retries to completion)",
				tr.Name, tr.Attempted, tr.Submitted, perTenant)
		}
		if tr.Outcomes["ok"] != perTenant {
			t.Fatalf("tenant %s outcomes = %v, want %d ok", tr.Name, tr.Outcomes, perTenant)
		}
		if len(tr.Latencies) != perTenant {
			t.Fatalf("tenant %s recorded %d latencies, want %d", tr.Name, len(tr.Latencies), perTenant)
		}
	}
}

// TestOpenLoopPoisson drives Poisson arrivals faster than a single small
// machine can serve, with a tight queue: some offered load must be shed as
// rejections, everything admitted must still resolve exactly once.
func TestOpenLoopPoisson(t *testing.T) {
	s := newServer(t, serve.Config{
		Pool:       []serve.PoolShape{{PEs: 2}},
		QueueBound: 4,
	})
	plan := Plan{
		Seed: 11,
		Tenants: []TenantLoad{
			// ~5k arrivals/s of ~multi-ms jobs against a 4-slot queue:
			// far past saturation, so most offered load must be shed.
			{Name: "burst", RateHz: 5000, Jobs: 200, Template: Template{EdgeCount: 1500, Vertices: 500}},
		},
	}
	res, err := Run(context.Background(), Local(s), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Attempted != 200 {
		t.Fatalf("attempted %d, want 200", tr.Attempted)
	}
	if tr.Submitted+tr.Rejected != 200 {
		t.Fatalf("submitted %d + rejected %d ≠ 200 (open loop drops on rejection)",
			tr.Submitted, tr.Rejected)
	}
	if tr.Rejected == 0 {
		t.Fatal("5kHz of multi-ms jobs against a 4-slot queue shed nothing; back-pressure untested")
	}
	if tr.Submitted == 0 {
		t.Fatal("everything was rejected; the run measured nothing")
	}
}

// TestRemoteTarget runs a small closed-loop plan over the HTTP API.
func TestRemoteTarget(t *testing.T) {
	s := newServer(t, serve.Config{
		Pool:  []serve.PoolShape{{PEs: 2}},
		Batch: serve.BatchConfig{MaxJobs: 4, MaxEdges: 1 << 14},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &serve.Client{BaseURL: ts.URL, PollWait: 250 * time.Millisecond}
	plan := Plan{
		Seed: 3,
		Tenants: []TenantLoad{
			{Name: "web", Workers: 4, Jobs: 40, Template: Template{EdgeCount: 30, Vertices: 15, Verify: true}},
			{Name: "spec", Workers: 2, Jobs: 6, Template: Template{
				Spec: &kamsta.GraphSpec{Family: kamsta.GNM, N: 300, M: 1200, Seed: 5},
			}},
		},
	}
	res, err := Run(context.Background(), Remote(c), plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Outcomes["ok"] != tr.Submitted {
			t.Fatalf("tenant %s outcomes = %v, want all ok of %d", tr.Name, tr.Outcomes, tr.Submitted)
		}
	}
}
