package loadgen

import (
	"fmt"
	"io"
	"maps"

	"kamsta/internal/bench"
)

// WriteExhibit renders a run as a kamsta-bench/v1 document (the same
// schema mstbench -json emits), one row per tenant plus an "all" summary
// row: jobs completed, sustained jobs/second, p50/p95/p99 of
// submit-to-result latency, and the rejection rate. scale carries the
// pool shape (Ps) for the envelope; date is the caller's ISO date.
func WriteExhibit(w io.Writer, res *Result, plan Plan, scale bench.Scale, date string) error {
	rec := &bench.Recorder{}
	rec.SetBenchmark("loadgen")
	elapsed := res.Elapsed.Seconds()
	var all TenantResult
	all.Name = "all"
	all.Outcomes = map[string]int{}
	for i, tr := range res.Tenants {
		rec.Add(tenantRow(tr, planTenant(plan, i), elapsed))
		all.Attempted += tr.Attempted
		all.Submitted += tr.Submitted
		all.Rejected += tr.Rejected
		all.Shed += tr.Shed
		for k, v := range tr.Outcomes {
			all.Outcomes[k] += v
		}
		all.Latencies = append(all.Latencies, tr.Latencies...)
		all.RejectLatencies = append(all.RejectLatencies, tr.RejectLatencies...)
		all.BadResults += tr.BadResults
	}
	allRow := tenantRow(&all, TenantLoad{Name: "all"}, elapsed)
	if res.Server != nil {
		// Server-side robustness counters land on the summary row: retries
		// are per-tenant on the server but the exhibit's tenant rows are
		// client-side views, and quarantine is a pool-wide fact.
		for _, ts := range res.Server.Tenants {
			allRow.Retried += ts.Retried
		}
		allRow.Quarantined = res.Server.Quarantined
	}
	rec.Add(allRow)
	return rec.WriteJSON(w, scale, date)
}

func planTenant(plan Plan, i int) TenantLoad {
	if i < len(plan.Tenants) {
		return plan.Tenants[i]
	}
	return TenantLoad{}
}

func tenantRow(tr *TenantResult, tl TenantLoad, elapsed float64) bench.Row {
	row := bench.Row{
		Instance:    loadLabel(tl),
		Algorithm:   string(tl.Template.Algorithm),
		PEs:         tl.Template.PEs,
		Tenant:      tr.Name,
		Jobs:        tr.Completed(),
		WallSeconds: elapsed,
		P50Seconds:  tr.Percentile(50),
		P95Seconds:  tr.Percentile(95),
		P99Seconds:  tr.Percentile(99),
		Shed:        tr.Shed,
	}
	row.RejectP99Seconds = tr.RejectPercentile(99)
	if len(tr.Outcomes) > 0 {
		row.Outcomes = maps.Clone(tr.Outcomes)
	}
	if row.Algorithm == "" {
		row.Algorithm = "boruvka"
	}
	if elapsed > 0 {
		row.JobsPerSecond = float64(tr.Completed()) / elapsed
	}
	if tr.Attempted > 0 {
		row.RejectedRate = float64(tr.Attempted-tr.Submitted) / float64(tr.Attempted)
	}
	return row
}

// loadLabel names the tenant's offered load for the Instance column, e.g.
// "closed(w=4,edges=64)" or "open(5.0Hz,gnm)".
func loadLabel(tl TenantLoad) string {
	shape := "mixed"
	switch {
	case tl.Template.Spec != nil:
		shape = tl.Template.Spec.Family.Name()
	case tl.Template.EdgeCount > 0:
		shape = fmt.Sprintf("edges=%d", tl.Template.EdgeCount)
	}
	switch {
	case tl.Workers > 0:
		return fmt.Sprintf("closed(w=%d,%s)", tl.Workers, shape)
	case tl.RateHz > 0:
		return fmt.Sprintf("open(%.1fHz,%s)", tl.RateHz, shape)
	default:
		return shape
	}
}
