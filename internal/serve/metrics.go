package serve

import (
	"sync/atomic"

	"kamsta/internal/obs"
)

// serveMetrics owns the serve_* series.
type serveMetrics struct {
	reg       *obs.Registry
	queueWait *obs.Histogram
	runTime   *obs.Histogram
	batchSize *obs.Histogram
}

// tenantSeries caches one tenant's counters on its tenant record, so the
// per-job path is a pointer load and an atomic add. Slots fill on first use:
// a series that never counted anything is not exported.
type tenantSeries struct {
	submitted, retried atomic.Pointer[obs.Counter]
	rejected           [len(rejections)]atomic.Pointer[obs.Counter]
	completed          [len(outcomes)]atomic.Pointer[obs.Counter]
}

// counterFam names one per-tenant counter family; key is its second label
// ("" = tenant only).
type counterFam struct{ name, help, key string }

var (
	famSubmitted = counterFam{"serve_jobs_submitted_total", "Jobs admitted, by tenant.", ""}
	famRetried   = counterFam{"serve_jobs_retried_total", "Server-side retries of fault-killed jobs, by tenant.", ""}
	famRejected  = counterFam{"serve_jobs_rejected_total", "Submissions rejected, by tenant and reason.", "reason"}
	famCompleted = counterFam{"serve_jobs_completed_total", "Jobs finished, by tenant and outcome.", "outcome"}
)

// inc bumps the counter cached in slot, resolving it from the registry (which
// is get-or-create by name and labels) the first time. A nil slot — there is
// no tenant record to cache on — resolves every time.
func (sm *serveMetrics) inc(slot *atomic.Pointer[obs.Counter], f *counterFam, tenant, value string) {
	var c *obs.Counter
	if slot != nil {
		c = slot.Load()
	}
	if c == nil {
		labels := []obs.Label{{Key: "tenant", Value: tenant}}
		if f.key != "" {
			labels = append(labels, obs.Label{Key: f.key, Value: value})
		}
		c = sm.reg.Counter(f.name, f.help, labels...)
		if slot != nil {
			slot.Store(c)
		}
	}
	c.Inc()
}

// newServeMetrics registers the serve_* series against reg and wires the
// live gauges to the server's own state. Without a configured registry the
// series live in a private one nobody scrapes, so the server has one
// accounting path either way.
func newServeMetrics(reg *obs.Registry, s *Server) *serveMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sm := &serveMetrics{
		reg: reg,
		queueWait: reg.Histogram("serve_queue_wait_seconds",
			"Wall seconds jobs spent queued before dispatch.",
			[]float64{0.001, 0.01, 0.1, 1, 10}),
		runTime: reg.Histogram("serve_job_run_seconds",
			"Wall seconds of machine time per dispatch (a batch counts once).",
			[]float64{0.01, 0.1, 1, 10, 100}),
		batchSize: reg.Histogram("serve_batch_jobs",
			"Jobs coalesced per batched dispatch.",
			[]float64{2, 4, 8, 16, 32}),
	}
	reg.GaugeFunc("serve_queue_depth", "Jobs currently queued.",
		func() float64 { return float64(s.sched.depth()) })
	reg.GaugeFunc("serve_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(s.running.Load()) })
	reg.GaugeFunc("serve_machines", "Warm machines in the pool.",
		func() float64 { return float64(len(s.machines)) })
	reg.GaugeFunc("serve_machines_busy", "Pool machines currently running a dispatch.",
		func() float64 {
			busy := 0
			for _, pm := range s.machines {
				if pm.busy.Load() {
					busy++
				}
			}
			return float64(busy)
		})
	reg.GaugeFunc("serve_brownout", "1 while the server is degraded (deep queue or quarantined machines).",
		func() float64 {
			if s.brownout() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("serve_machines_quarantined", "Pool machines removed from service (dead, or after repeated faults).",
		func() float64 { return float64(len(s.machines) - s.live(0)) })
	return sm
}

// rejected counts one refused submission under its rejection-table row. t
// is nil while the tenant is not registered (unknown, or refused before
// auto-registration).
func (sm *serveMetrics) rejected(t *tenant, name string, row int) {
	var slot *atomic.Pointer[obs.Counter]
	if t != nil {
		slot = &t.series.rejected[row]
	} else if name == "" {
		name = "unknown"
	}
	sm.inc(slot, &famRejected, name, rejections[row].Code)
}
