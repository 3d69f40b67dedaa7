// Command mstload drives a job server with multi-tenant load — closed-loop
// worker pools or open-loop Poisson arrivals (internal/serve/loadgen) —
// and reports throughput, latency percentiles and rejection rates. With
// -target it aims at a running mstserve over HTTP; without, it spins up an
// in-process server (-pool et al.) so a full load test needs one command.
//
// Every job is accounted exactly once; with -verify each edge-list result
// is cross-checked against sequential Kruskal. The process exits non-zero
// if any result is lost, duplicated, or wrong.
//
// Usage:
//
//	mstload -tenants alpha:4,beta:2,gamma:1 -workers 8 -jobs 400
//	mstload -target http://127.0.0.1:8377 -tenants web -rate 200 -jobs 1000
//	mstload -family gnm -n 4096 -m 32768 -tenants big -workers 2 -jobs 20
//	mstload -chaos-fault 0.2 -chaos-storm 0.1 -retry-attempts 3 -jobs 200
//
// The -chaos-* flags mix seeded service-level faults into the offered load
// (mid-run panics, watchdog stalls, hopeless deadlines); -retry-attempts
// and -quarantine-after turn on the in-process server's resilience knobs so
// a chaos run exercises the full shed/retry/quarantine machinery.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"kamsta"
	"kamsta/internal/cliobs"
	"kamsta/internal/gen"
	"kamsta/internal/serve"
	"kamsta/internal/serve/loadgen"
)

func main() {
	target := flag.String("target", "", "mstserve base URL (empty = run an in-process server)")
	// The in-process server's flags are mstserve's own, by the same names.
	srvFlags := serve.RegisterFlags(flag.CommandLine,
		"pool", "queue", "tenant-queue", "batch-jobs", "batch-edges", "retry-attempts", "quarantine-after")
	tenants := flag.String("tenants", "load", "tenants, name[:weight] comma-separated (weight applies in-process)")
	workers := flag.Int("workers", 4, "closed loop: concurrent workers per tenant")
	rate := flag.Float64("rate", 0, "open loop: Poisson arrivals per second per tenant (overrides -workers)")
	jobs := flag.Int("jobs", 400, "jobs per tenant")
	alg := flag.String("alg", "", "algorithm per job (empty = server default)")
	edges := flag.Int("edges", 64, "edge-list jobs: edges per instance")
	vertices := flag.Int("vertices", 0, "edge-list jobs: vertex labels per instance (0 = 2+edges/3)")
	family := flag.String("family", "", "generated jobs: graph family (replaces -edges mode)")
	n := flag.Uint64("n", 1<<12, "generated jobs: vertices")
	m := flag.Uint64("m", 1<<15, "generated jobs: edges (families that take m)")
	deadline := flag.Duration("deadline", 0, "per-job deadline (0 = server default)")
	pes := flag.Int("pes", 0, "pin jobs to machines of this PE count (0 = any)")
	noBatch := flag.Bool("no-batch", false, "opt every job out of batching")
	verify := flag.Bool("verify", true, "cross-check edge-list results against sequential Kruskal")
	seed := flag.Uint64("seed", 42, "load and instance seed")
	duration := flag.Duration("duration", 0, "cap the run (0 = until all jobs resolve)")
	chaosFault := flag.Float64("chaos-fault", 0, "fraction of jobs that panic on one PE mid-run (in-process targets only)")
	chaosStall := flag.Float64("chaos-stall", 0, "fraction of jobs that stall one PE past the watchdog (in-process targets only)")
	chaosStorm := flag.Float64("chaos-storm", 0, "fraction of jobs arriving with a hopeless deadline")
	obsFlags := cliobs.Register()
	flag.Parse()

	cliobs.Run("mstload", obsFlags, func(ctx context.Context) error {
		cfg, err := srvFlags.Config()
		if err == nil {
			cfg.Tenants, err = serve.ParseTenants(*tenants)
		}
		if err != nil {
			return cliobs.Usagef("%v", err)
		}
		if len(cfg.Tenants) == 0 {
			return cliobs.Usagef("no tenants")
		}

		tmpl := loadgen.Template{
			Algorithm: kamsta.Algorithm(*alg),
			Deadline:  *deadline,
			PEs:       *pes,
			NoBatch:   *noBatch,
		}
		if *family != "" {
			fam, err := gen.ParseFamily(*family)
			if err != nil {
				return cliobs.Usagef("%v", err)
			}
			tmpl.Spec = &kamsta.GraphSpec{Family: fam, N: *n, M: *m, Seed: *seed}
		} else {
			tmpl.EdgeCount = *edges
			tmpl.Vertices = *vertices
			tmpl.Verify = *verify
		}
		if *chaosFault > 0 || *chaosStall > 0 || *chaosStorm > 0 {
			if *target != "" && (*chaosFault > 0 || *chaosStall > 0) {
				return cliobs.Usagef("-chaos-fault/-chaos-stall need an in-process server (fault plans do not travel over HTTP)")
			}
			tmpl.Chaos = &loadgen.ChaosSpec{
				FaultFraction: *chaosFault,
				StallFraction: *chaosStall,
				StormFraction: *chaosStorm,
			}
		}

		plan := loadgen.Plan{Seed: *seed, Duration: *duration}
		for _, tc := range cfg.Tenants {
			tl := loadgen.TenantLoad{Name: tc.Name, Jobs: *jobs, Template: tmpl}
			if *rate > 0 {
				tl.RateHz = *rate
			} else {
				tl.Workers = *workers
			}
			plan.Tenants = append(plan.Tenants, tl)
		}

		var tgt loadgen.Target
		var srvStats func() (serve.Stats, bool)
		if *target != "" {
			c := &serve.Client{BaseURL: *target}
			if !c.Healthy(ctx) {
				return cliobs.Usagef("target %s is not healthy", *target)
			}
			srvStats = func() (serve.Stats, bool) {
				st, err := c.Stats(context.Background())
				return st, err == nil
			}
			tgt = loadgen.Remote(c)
		} else {
			cfg.Metrics, cfg.Trace = obsFlags.Registry, obsFlags.Trace
			srv, err := serve.New(cfg)
			if err != nil {
				return cliobs.Usagef("%v", err)
			}
			defer srv.Close()
			srvStats = func() (serve.Stats, bool) { return srv.Stats(), true }
			tgt = loadgen.Local(srv)
		}

		// An interrupt cancels the plan: in-flight jobs are still accounted,
		// and the partial summary is printed before the exit.
		res, err := loadgen.Run(ctx, tgt, plan)
		if err != nil {
			return cliobs.Usagef("%v", err)
		}
		// Snapshot the server before drain/close so the summary reports the
		// run's retry and quarantine counters.
		if st, ok := srvStats(); ok {
			res.Server = &st
		}
		printSummary(res)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := res.Verify(); err != nil {
			return fmt.Errorf("VERIFY FAILED: %w", err)
		}
		fmt.Fprintln(os.Stderr, "mstload: exactly-once verified")
		return nil
	})
}

func printSummary(res *loadgen.Result) {
	elapsed := res.Elapsed.Seconds()
	var jobs int
	for _, tr := range res.Tenants {
		jobs += tr.Completed()
		outcomes := make([]string, 0, len(tr.Outcomes))
		for k, v := range tr.Outcomes {
			outcomes = append(outcomes, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(outcomes)
		fmt.Printf("%-12s attempted=%d admitted=%d shed=%d %v p50=%.1fms p95=%.1fms p99=%.1fms",
			tr.Name, tr.Attempted, tr.Submitted, tr.Shed, outcomes,
			tr.Percentile(50)*1e3, tr.Percentile(95)*1e3, tr.Percentile(99)*1e3)
		// How fast the server says no: under overload this should sit orders
		// of magnitude below p50.
		if len(tr.RejectLatencies) > 0 {
			fmt.Printf(" reject_p99=%.3fms", tr.RejectPercentile(99)*1e3)
		}
		fmt.Println()
	}
	fmt.Printf("total: %d jobs in %.2fs = %.1f jobs/s\n", jobs, elapsed, float64(jobs)/elapsed)
	if res.Server != nil {
		var retried int64
		for _, ts := range res.Server.Tenants {
			retried += ts.Retried
		}
		if retried > 0 || res.Server.Quarantined > 0 {
			fmt.Printf("server: retried=%d quarantined=%d\n", retried, res.Server.Quarantined)
		}
	}
}
