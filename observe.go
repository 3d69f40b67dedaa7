package kamsta

import (
	"context"
	"errors"

	"kamsta/internal/obs"
)

// Metrics is a process-local metrics registry: typed counters, gauges and
// histograms, exported as Prometheus text (WritePrometheus, and over HTTP by
// Handler). Share one registry between any number of Machines and worlds —
// instruments are resolved get-or-create by name and labels, so totals stay
// monotone across world rebuilds.
//
//	reg := kamsta.NewMetrics()
//	m, _ := kamsta.NewMachine(kamsta.MachineConfig{PEs: 8, Metrics: reg})
//	...
//	reg.WritePrometheus(os.Stdout)
//
// Maintaining metrics never perturbs a job's modeled clock or traffic: the
// golden modeled-time bits are identical with metrics on and off.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Trace collects structured spans — job phases, Borůvka rounds, and every
// collective superstep of every PE — from jobs run WithTrace. Export with
// WriteChromeJSON (load in chrome://tracing or ui.perfetto.dev) or
// WriteSummary (a per-phase / per-collective / per-round text table). One
// Trace may span many jobs; all timestamps share its epoch. Spans are
// recorded per PE into world-owned fixed-capacity rings (no hot-path
// allocation) and drained when each PE completes its share gracefully.
type Trace = obs.Trace

// NewTrace returns an empty trace.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace records this job's span stream into tr.
func WithTrace(tr *Trace) RunOption {
	return func(rs *runSettings) { rs.trace = tr }
}

// machineMetrics is the Machine's resolved job-level instrument set (nil
// when the machine was built without MachineConfig.Metrics).
type machineMetrics struct {
	started   *obs.Counter
	completed *obs.Counter
	cancelled *obs.Counter
	faulted   *obs.Counter
	failed    *obs.Counter
	rebuilds  *obs.Counter
	queued    *obs.Gauge
	queueWait *obs.Histogram
	wallHist  *obs.Histogram
	modeled   *obs.FloatCounter
	wall      *obs.FloatCounter
}

func newMachineMetrics(reg *Metrics) *machineMetrics {
	if reg == nil {
		return nil
	}
	return &machineMetrics{
		started: reg.Counter("kamsta_jobs_started_total",
			"Jobs accepted by Machine.Compute (validated and enqueued)."),
		completed: reg.Counter("kamsta_jobs_completed_total",
			"Jobs that returned a Report."),
		cancelled: reg.Counter("kamsta_jobs_cancelled_total",
			"Jobs abandoned because their context expired (queued or running)."),
		faulted: reg.Counter("kamsta_jobs_faulted_total",
			"Jobs that failed with a *JobError (contained panic, stall, lost PE)."),
		failed: reg.Counter("kamsta_jobs_failed_total",
			"Jobs that failed for any other reason (bad input, closed machine)."),
		rebuilds: reg.Counter("kamsta_world_rebuilds_total",
			"Transparent world rebuilds after faults."),
		queued: reg.Gauge("kamsta_jobs_queued",
			"Compute calls currently waiting for the job slot."),
		queueWait: reg.Histogram("kamsta_job_queue_wait_seconds",
			"Wall seconds jobs waited for the job slot.",
			[]float64{0.001, 0.01, 0.1, 1, 10}),
		wallHist: reg.Histogram("kamsta_job_wall_seconds",
			"Wall seconds of completed jobs.",
			[]float64{0.01, 0.1, 1, 10, 100}),
		modeled: reg.FloatCounter("kamsta_job_modeled_seconds_total",
			"Modeled seconds (α-β makespan) summed over completed jobs."),
		wall: reg.FloatCounter("kamsta_job_wall_seconds_total",
			"Wall seconds summed over completed jobs."),
	}
}

// finish classifies one Compute outcome. Safe on a nil receiver.
func (mm *machineMetrics) finish(rep *Report, err error) {
	if mm == nil {
		return
	}
	switch {
	case err == nil:
		mm.completed.Inc()
		if rep != nil {
			mm.modeled.Add(rep.ModeledSeconds)
			mm.wall.Add(rep.WallSeconds)
			mm.wallHist.Observe(rep.WallSeconds)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		mm.cancelled.Inc()
	default:
		var je *JobError
		if errors.As(err, &je) {
			mm.faulted.Inc()
		} else {
			mm.failed.Inc()
		}
	}
}
