package main

import (
	"fmt"

	"kamsta"
)

// sample is one job of the closed loop as its caller saw it.
type sample struct {
	arm     int
	seconds float64 // caller-side wall: Compute call, or POST to result body
	err     error   // nil when the job completed with a correct answer
	edges   int     // directed input edges of the job
	modeled float64 // the job's modeled seconds
	// rep is a compute job's report with its edge list dropped.
	rep *kamsta.Report
	// submitS and runS are serve-small's POST round trip and the machine
	// time the server reported for the job.
	submitS, runS float64
}

// instance is one set-up workload: machines or a server, references, and
// warm-up done. Arm 0 is the plain configuration every end-to-end number
// comes from; a traced run adds arm 1, the same jobs with spans recorded
// (and, on gnm-boruvka, arm 2: the same job over loopback TCP).
type instance interface {
	arms() int
	clients() int
	// job runs one job on an arm and checks its answer. rec is nil on
	// untraced arms.
	job(client, arm, id int, rec *recorder) sample
	// counters reads the instance's metric registries, summed by series.
	counters() counters
	// layerValues turns a traced window into this instance's per-layer
	// metrics; an error is a failed cross-job check.
	layerValues(samples []sample, self map[int]map[string]float64, before, after counters) (map[string]float64, error)
	// layerArgs is the input the layer microcalls should run on.
	layerArgs() []string
	close() error
}

// The arms of a traced run.
const (
	armPlain = iota
	armTraced
	armTCP
)

// workload is one declared workload; BENCHMARK.json repeats name and why.
type workload struct {
	name string
	why  string
	// seedSalt separates the workloads' instance seeds.
	seedSalt uint64
	// Compute workloads: the generated instance and the algorithm.
	spec kamsta.GraphSpec
	alg  kamsta.Algorithm
	// tcpTwin adds the TCP arm to the traced run: the same job with ranks
	// 8-15 behind a loopback TCP worker.
	tcpTwin bool
	// serve-small when set.
	serve bool
	// warmup is the number of unmeasured jobs per arm during set-up.
	warmup int
}

const computePEs = 16

var workloads = []workload{
	{
		name:     "gnm-boruvka",
		why:      "No locality: preprocessing is skipped and redistribute plus label exchange dominate, so dsort, alltoall, comm.RawAlltoall and radix do the work and localmst none.",
		seedSalt: 1, spec: kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 15, M: 1 << 19},
		alg: kamsta.AlgBoruvka, tcpTwin: true, warmup: 2,
	},
	{
		name:     "rgg-boruvka",
		why:      "The paper's local-contraction case: localPreprocessing is most of the job and the exchange stack is nearly bypassed; the counter-workload to gnm-boruvka.",
		seedSalt: 2, spec: kamsta.GraphSpec{Family: kamsta.RGG2D, N: 1 << 17, M: 1 << 20},
		alg: kamsta.AlgBoruvka, warmup: 2,
	},
	{
		name:     "gnm-filter",
		why:      "Dense GNM under Filter-Boruvka: partition+filter with thousands of small collectives, so barrier latency and par.Filter matter, bandwidth does not; gen.Build is its largest share anywhere.",
		seedSalt: 3, spec: kamsta.GraphSpec{Family: kamsta.GNM, N: 1 << 14, M: 1 << 20},
		alg: kamsta.AlgFilterBoruvka, warmup: 2,
	},
	{
		name:     "serve-small",
		why:      "HTTP to admit to queue to dispatch to a 2-PE Compute and back, two closed-loop clients: per-job overhead, not kernels, is the cost; the compute workloads bypass serve entirely.",
		seedSalt: 5, serve: true, warmup: 1000,
	},
}

// findWorkload resolves a workload by name at a scale: "full" as declared,
// "smoke" shrunk so the harness self-tests run in seconds.
func findWorkload(name, scale string) (workload, error) {
	if scale != "full" && scale != "smoke" {
		return workload{}, fmt.Errorf("unknown scale %q (full, smoke)", scale)
	}
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if scale == "smoke" {
			w.spec.N >>= 6
			w.spec.M >>= 6
			w.warmup = 1
			if w.serve {
				w.warmup = 8
			}
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) setup(seed uint64, traced bool) (instance, error) {
	if w.serve {
		return setupServe(w, seed)
	}
	return setupCompute(w, seed, traced)
}

// mix derives an instance seed from the run seed (splitmix64 finalizer), so
// neighbouring run seeds give unrelated instances. Never 0: a zero spec
// seed means "derive one" to the program.
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
