package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json carries the same three
// fields, and a test holds the two lists equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what an untraced run reports. The bound of each lives in
// BENCHMARK.json only; compare reads it from there.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s_p50", "s", "lower"},
	{"edges_per_s", "1/s", "higher"},
	{"cpu_s_per_job", "s", "lower"},
	{"alloc_mb_per_job", "MB", "lower"},
}

// perLayer lists what a traced run reports, layer by layer (layer = module
// name). A metric whose layer does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"kamsta.input_s", "s", "lower"},
	{"kamsta.algorithm_s", "s", "lower"},
	{"kamsta.collect_s", "s", "lower"},
	{"kamsta.job_s_tail", "s", "lower"},
	{"kamsta.tail_percentile", "%", "higher"},
	{"kamsta.jobs_measured", "count", "higher"},
	{"kamsta.modeled_s", "modeled_s", "lower"},
	{"gen.generate_s", "s", "lower"},
	{"gen.finish_s", "s", "lower"},
	{"core.preprocess_s", "s", "lower"},
	{"core.minedges_s", "s", "lower"},
	{"core.contract_s", "s", "lower"},
	{"core.labels_s", "s", "lower"},
	{"core.redistribute_s", "s", "lower"},
	{"core.basecase_s", "s", "lower"},
	{"core.filter_s", "s", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.base_calls", "count", "lower"},
	{"core.redistribute_bytes", "bytes", "lower"},
	{"core.filter_bytes", "bytes", "lower"},
	{"dsort.sort_medges_per_s", "Medges/s", "higher"},
	{"alltoall.direct_us", "us", "lower"},
	{"alltoall.grid_us", "us", "lower"},
	{"comm.collectives", "count", "lower"},
	{"comm.messages", "count", "lower"},
	{"comm.bytes", "bytes", "lower"},
	{"comm.supersteps", "count", "lower"},
	{"comm.barrier_wait_s", "s", "lower"},
	{"comm.barrier_us", "us", "lower"},
	{"comm.allreduce_us", "us", "lower"},
	{"comm.rawalltoall_mb_per_s", "MB/s", "higher"},
	{"comm.rawalltoall_alloc_kb", "KB", "lower"},
	{"transport.tcp.frames", "count", "lower"},
	{"transport.tcp.wire_bytes", "bytes", "lower"},
	{"transport.tcp.amplification", "ratio", "lower"},
	{"transport.tcp.tax", "ratio", "lower"},
	{"enc.encode_mb_per_s", "MB/s", "higher"},
	{"enc.decode_mb_per_s", "MB/s", "higher"},
	{"radix.sort_mkeys_per_s", "Mkeys/s", "higher"},
	{"par.filter_melems_per_s", "Melems/s", "higher"},
	{"par.prefixsum_melems_per_s", "Melems/s", "higher"},
	{"par.for_overhead_us", "us", "lower"},
	{"localmst.msf_medges_per_s", "Medges/s", "higher"},
	{"seqmst.kruskal_s", "s", "lower"},
	{"graph.edge_bytes", "bytes", "lower"},
	{"arena.bytes", "bytes", "lower"},
	{"serve.submit_s_p50", "s", "lower"},
	{"serve.overhead_s_p50", "s", "lower"},
	{"serve.queue_wait_s_mean", "s", "lower"},
	{"serve.run_s_mean", "s", "lower"},
	{"serve.batch_jobs_mean", "count", "higher"},
	{"serve.latency_s_p99", "s", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.retried", "count", "lower"},
	{"runtime.gc_count_per_job", "count", "lower"},
	{"runtime.gc_pause_ms_per_job", "ms", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"obs.trace_overhead_ratio", "ratio", "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a workload run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newRunResult fills every declared metric from values; a metric the run did
// not measure reads 0, and a value nobody declared is a bug in the harness.
func newRunResult(defs []metricDef, values map[string]float64, attempted, failed int) (runResult, error) {
	res := runResult{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return runResult{}, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return res, nil
}

// print writes every metric by name with its unit, then the result object
// as the last line.
func (r runResult) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		if _, err := fmt.Fprintf(w, "%-32s %16.6g %s\n", name, m.Value, m.Unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// exitCode is non-zero when any job of the run failed.
func (r runResult) exitCode() int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}
