package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"kamsta"
	"kamsta/internal/core"
)

// computeArm is one machine a compute workload's jobs run on.
type computeArm struct {
	m   *kamsta.Machine
	reg *kamsta.Metrics // traced and TCP arms; shared with the TCP worker
	// stopWorker stops the arm's loopback TCP worker (nil on shm).
	stopWorker func() error
}

// computeInst is a set-up compute workload: closed loop, one caller.
type computeInst struct {
	w    workload
	src  kamsta.Source
	opts []kamsta.RunOption
	ref  reference
	arm  []computeArm
}

// phaseMetrics maps the program's phase names to the core.* layer metrics.
var phaseMetrics = map[string]string{
	core.PhasePreprocess:   "core.preprocess_s",
	core.PhaseMinEdges:     "core.minedges_s",
	core.PhaseContract:     "core.contract_s",
	core.PhaseLabels:       "core.labels_s",
	core.PhaseRedistribute: "core.redistribute_s",
	core.PhaseBaseCase:     "core.basecase_s",
	core.PhaseFilter:       "core.filter_s",
}

// setupCompute builds the machines, computes the reference for this seed's
// instance and runs the warm-up jobs, each of them checked.
func setupCompute(w workload, seed uint64, traced bool) (_ instance, err error) {
	spec := w.spec
	spec.Seed = mix(seed, w.seedSalt)
	inst := &computeInst{
		w:   w,
		src: kamsta.FromSpec(spec),
		// core.DefaultOptions, not the zero value: the zero value leaves
		// local preprocessing off, and mstbench's series run with it on.
		opts: []kamsta.RunOption{
			kamsta.WithAlgorithm(w.alg),
			kamsta.WithSeed(spec.Seed),
			kamsta.WithCoreOptions(core.DefaultOptions()),
		},
	}
	defer func() {
		if err != nil {
			_ = inst.close()
		}
	}()

	newArm := func(tcp bool, reg *kamsta.Metrics) error {
		a := computeArm{reg: reg}
		cfg := kamsta.MachineConfig{PEs: computePEs, Threads: 1, Metrics: reg}
		if tcp {
			addr, stop, err := startWorker(reg)
			if err != nil {
				return err
			}
			a.stopWorker = stop
			cfg.Transport, cfg.Workers = kamsta.TransportTCP, []string{addr}
		}
		m, err := kamsta.NewMachine(cfg)
		if err != nil {
			if a.stopWorker != nil {
				_ = a.stopWorker()
			}
			return fmt.Errorf("machine: %w", err)
		}
		a.m = m
		inst.arm = append(inst.arm, a)
		return nil
	}
	if err := newArm(false, nil); err != nil {
		return nil, err
	}
	if traced {
		if err := newArm(false, kamsta.NewMetrics()); err != nil {
			return nil, err
		}
		if w.tcpTwin {
			// The TCP arm's registry is read for the wire counters only.
			if err := newArm(true, kamsta.NewMetrics()); err != nil {
				return nil, err
			}
		}
	}
	// One reference for every arm: the TCP twin's answers are held to the
	// weight the shm machine's are.
	rep, err := inst.arm[armPlain].m.Compute(context.Background(), inst.src,
		kamsta.WithAlgorithm(kamsta.AlgKruskal), kamsta.WithSeed(spec.Seed))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	inst.ref = reference{weight: rep.TotalWeight, edges: rep.NumEdges}

	for a := range inst.arm {
		for i := 0; i < w.warmup; i++ {
			if s := inst.job(0, a, 0, nil); s.err != nil {
				return nil, fmt.Errorf("warm-up job: %w", s.err)
			}
		}
	}
	return inst, nil
}

// startWorker hosts the upper rank block of a TCP machine in this process,
// behind a real loopback listener. stop returns once the worker has exited.
func startWorker(reg *kamsta.Metrics) (addr string, stop func() error, err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("worker listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- kamsta.ServeWorker(ctx, lis, kamsta.WorkerOptions{Metrics: reg}) }()
	return lis.Addr().String(), func() error {
		cancel()
		return <-done
	}, nil
}

func (c *computeInst) arms() int    { return len(c.arm) }
func (c *computeInst) clients() int { return 1 }

// phaseEvent is one observer event with the benchmark's own timestamp.
type phaseEvent struct {
	at    time.Time
	begin bool
	phase string
}

func (c *computeInst) job(_, arm, id int, rec *recorder) sample {
	opts := c.opts
	var events []phaseEvent
	if arm == armTraced {
		// The observer runs on the PE-0 goroutine; Compute's return orders
		// its appends before the reads below.
		opts = append(opts[:len(opts):len(opts)], kamsta.WithObserver(func(ev kamsta.Event) {
			if ev.Kind != kamsta.EventRound {
				events = append(events, phaseEvent{time.Now(), ev.Kind == kamsta.EventPhaseBegin, ev.Phase})
			}
		}))
	}
	start := time.Now()
	rep, err := c.arm[arm].m.Compute(context.Background(), c.src, opts...)
	end := time.Now()
	s := sample{arm: arm, seconds: end.Sub(start).Seconds()}
	if err != nil {
		s.err = err
		return s
	}
	// Checking is outside the timed span.
	s.err = checkReport(rep, c.ref)
	s.edges, s.modeled = rep.InputEdges, rep.ModeledSeconds
	rep.MSTEdges = nil
	s.rep = rep
	if arm == armTraced {
		recordJob(rec, id, start, end, events)
	}
	return s
}

// recordJob turns one traced job's observer events into spans:
// job > kamsta.input | kamsta.algorithm > core.<phase> | kamsta.collect.
// The algorithm runs from the first phase event to the last; what precedes
// it materializes the input, what follows gathers the result.
func recordJob(rec *recorder, id int, start, end time.Time, events []phaseEvent) {
	job := rec.add("job", start, end, -1, id)
	if len(events) == 0 {
		return
	}
	first, last := events[0].at, events[len(events)-1].at
	rec.add("kamsta.input", start, first, job, id)
	alg := rec.add("kamsta.algorithm", first, last, job, id)
	rec.add("kamsta.collect", last, end, job, id)
	type open struct {
		phase string
		at    time.Time
		span  int
	}
	stack := []open{{span: alg}}
	for _, ev := range events {
		top := stack[len(stack)-1]
		if ev.begin {
			stack = append(stack, open{ev.phase, ev.at, -1})
		} else if len(stack) > 1 {
			stack = stack[:len(stack)-1]
			rec.add("core."+top.phase, top.at, ev.at, stack[len(stack)-1].span, id)
		}
	}
}

func (c *computeInst) counters() counters {
	if len(c.arm) <= armTraced {
		return counters{}
	}
	out := readCounters(c.arm[armTraced].reg)
	if len(c.arm) > armTCP {
		for series, v := range readCounters(c.arm[armTCP].reg) {
			if strings.HasPrefix(series, "transport_tcp_") {
				out[series] = v
			}
		}
	}
	return out
}

func (c *computeInst) layerValues(samples []sample, self map[int]map[string]float64, before, after counters) (map[string]float64, error) {
	// Ledger times are means over the traced jobs, not medians: means add
	// up, so input + algorithm + collect is the mean job and the phases sum
	// to no more than the algorithm.
	v := map[string]float64{
		"kamsta.input_s": mean(perJob(self, named("kamsta.input"))),
		// The algorithm span's self time is what no phase covers; the
		// metric is the whole span, phases included.
		"kamsta.algorithm_s": mean(perJob(self, func(name string) bool {
			return name == "kamsta.algorithm" || strings.HasPrefix(name, "core.")
		})),
		"kamsta.collect_s": mean(perJob(self, named("kamsta.collect"))),
	}
	for phase, name := range phaseMetrics {
		v[name] = mean(perJob(self, named("core."+phase)))
	}
	secs := tallySamples(samples).secs
	tracedJobs := float64(len(secs[armTraced]))
	var rep *kamsta.Report
	for _, s := range samples {
		if s.err == nil && s.arm == armTraced {
			rep = s.rep
		}
	}
	if rep == nil {
		return v, nil
	}
	// Counts repeat exactly from job to job; the last traced job's stand
	// for all.
	v["core.rounds"] = float64(rep.Rounds)
	v["core.base_calls"] = float64(rep.BaseCalls)
	v["core.redistribute_bytes"] = float64(rep.Phases[core.PhaseRedistribute].Stats.Bytes)
	v["core.filter_bytes"] = float64(rep.Phases[core.PhaseFilter].Stats.Bytes)
	v["comm.collectives"] = float64(rep.Stats.Collectives)
	v["comm.messages"] = float64(rep.Stats.Messages)
	v["comm.bytes"] = float64(rep.Stats.Bytes)
	v["comm.supersteps"] = delta(before, after, "kamsta_comm_supersteps_total", "") / tracedJobs
	v["comm.barrier_wait_s"] = delta(before, after, "kamsta_comm_barrier_wait_seconds_total", "") / tracedJobs
	v["arena.bytes"] = after.sum("kamsta_arena_bytes", "")
	if tcpJobs := float64(len(secs[armTCP])); tcpJobs > 0 {
		// Every frame is sent once, by the leader or by the worker.
		tx := `dir="tx"`
		v["transport.tcp.frames"] = delta(before, after, "transport_tcp_frames_total", tx) / tcpJobs
		v["transport.tcp.wire_bytes"] = delta(before, after, "transport_tcp_bytes_total", tx) / tcpJobs
		v["transport.tcp.amplification"] = ratio(v["transport.tcp.wire_bytes"], v["comm.bytes"])
		v["transport.tcp.tax"] = ratio(median(secs[armTCP]), median(secs[armPlain]))
	}
	// Transport invariance: every arm, the TCP twin included, models the
	// same seconds to the bit.
	for _, s := range samples {
		if s.err == nil && s.modeled != rep.ModeledSeconds {
			return nil, fmt.Errorf("modeled seconds differ across arms: %v on arm %d, %v on arm %d",
				s.modeled, s.arm, rep.ModeledSeconds, armTraced)
		}
	}
	return v, nil
}

func (c *computeInst) layerArgs() []string {
	spec := c.w.spec
	return []string{
		"-family", spec.Family.Name(),
		"-n", strconv.FormatUint(spec.N, 10),
		"-m", strconv.FormatUint(spec.M, 10),
		"-pes", strconv.Itoa(computePEs),
	}
}

func (c *computeInst) close() error {
	var errs []error
	for _, a := range c.arm {
		errs = append(errs, a.m.Close())
		if a.stopWorker != nil {
			errs = append(errs, a.stopWorker())
		}
	}
	c.arm = nil
	return errors.Join(errs...)
}
