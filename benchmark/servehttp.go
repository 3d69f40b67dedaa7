package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"kamsta"
	"kamsta/internal/serve"
)

// serve-small's shape: mstserve's defaults with a pool of two 2-PE machines
// and two weighted tenants, driven by as many closed-loop clients as the
// box has cores here (2), each on one keep-alive connection.
const (
	servePool    = "2x1:2"
	serveTenants = "alpha:2,beta:1"
	serveClients = 2
	serveLists   = 64
	serveEdges   = 512
	serveVerts   = 172
)

// serveJob is one pre-built request: the body the client posts and the
// weight the benchmark's own Kruskal expects back.
type serveJob struct {
	body []byte
	ref  reference
}

// serveInst is a set-up serve-small workload: the job server in this
// process behind a real loopback http.Server.
type serveInst struct {
	reg     *kamsta.Metrics
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	// clients[c] talks over its own single connection; jobs[c] is the
	// request list client c cycles through (one tenant per client).
	client []*http.Client
	jobs   [][]serveJob
	next   []int
}

// setupServe starts the server, builds the seeded edge lists with their
// references, and runs the warm-up jobs.
func setupServe(w workload, seed uint64) (_ instance, err error) {
	pool, err := serve.ParsePool(servePool)
	if err != nil {
		return nil, err
	}
	tenants, err := serve.ParseTenants(serveTenants)
	if err != nil {
		return nil, err
	}
	inst := &serveInst{reg: kamsta.NewMetrics(), served: make(chan error, 1)}
	// cmd/mstserve's flag defaults, spelled out: serve.Config's zero value
	// differs from them (no batching, no retry budget).
	inst.srv, err = serve.New(serve.Config{
		Pool:             pool,
		Tenants:          tenants,
		QueueBound:       1024,
		Batch:            serve.BatchConfig{MaxJobs: 8, MaxEdges: 65536},
		ResultTTL:        10 * time.Minute,
		ShedMinSamples:   16,
		ShedQuantile:     0.9,
		BrownoutFraction: 0.75,
		Retry:            serve.RetryConfig{MaxAttempts: 1, BudgetRate: 1, BudgetBurst: 10},
		MaxRequestBytes:  64 << 20,
		Metrics:          inst.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	defer func() {
		if err != nil {
			_ = inst.close()
		}
	}()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("http listener: %w", err)
	}
	inst.base = "http://" + lis.Addr().String()
	inst.httpSrv = &http.Server{Handler: inst.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { inst.served <- inst.httpSrv.Serve(lis) }()

	lists := make([]serveJob, serveLists)
	rng := mix(seed, w.seedSalt)
	for i := range lists {
		edges := make([]kamsta.InputEdge, serveEdges)
		wire := make([][3]uint64, serveEdges)
		for k := range edges {
			var u, v uint64
			for u == v {
				rng = mix(rng, 1)
				u, v = 1+rng%serveVerts, 1+(rng>>20)%serveVerts
			}
			edges[k] = kamsta.InputEdge{U: u, V: v, W: uint32(1 + (rng>>40)%254)}
			wire[k] = [3]uint64{u, v, uint64(edges[k].W)}
		}
		if lists[i].ref, err = kruskal(edges); err != nil {
			return nil, err
		}
		lists[i].body, _ = json.Marshal(wire) // plain integers cannot fail
	}
	for c := 0; c < serveClients; c++ {
		tenant := tenants[c%len(tenants)].Name
		jobs := make([]serveJob, len(lists))
		for i, l := range lists {
			jobs[i] = serveJob{ref: l.ref,
				body: []byte(fmt.Sprintf(`{"tenant":%q,"edges":%s}`, tenant, l.body))}
		}
		inst.jobs = append(inst.jobs, jobs)
		inst.client = append(inst.client, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   time.Minute,
		})
	}
	inst.next = make([]int, serveClients)

	var wg sync.WaitGroup
	warmErr := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < w.warmup/serveClients && warmErr[c] == nil; i++ {
				warmErr[c] = inst.job(c, armPlain, 0, nil).err
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(warmErr...); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return inst, nil
}

func (s *serveInst) arms() int    { return 2 }
func (s *serveInst) clients() int { return serveClients }

// wireJob is the part of the server's job JSON the client reads.
type wireJob struct {
	ID     uint64 `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Code   string `json:"code"`
	Result *struct {
		TotalWeight    uint64  `json:"total_weight"`
		NumEdges       int     `json:"num_edges"`
		ModeledSeconds float64 `json:"modeled_seconds"`
		WallSeconds    float64 `json:"wall_seconds"`
	} `json:"result"`
}

// do sends one request and decodes the JSON reply when the status is want;
// any other status is the job's failure (a 429 or 503 rejection included).
func (s *serveInst) do(client int, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client[client].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// job runs POST, long-poll GET, DELETE. Latency is POST to result body; the
// DELETE and the weight check are outside it.
func (s *serveInst) job(client, arm, id int, rec *recorder) sample {
	j := s.jobs[client][s.next[client]%len(s.jobs[client])]
	s.next[client]++
	smp := sample{arm: arm, edges: 2 * serveEdges}
	if arm != armTraced {
		rec = nil
	}

	start := time.Now()
	var posted, got wireJob
	err := s.do(client, http.MethodPost, s.base+"/v1/jobs", j.body, http.StatusAccepted, &posted)
	submitted := time.Now()
	jobURL := fmt.Sprintf("%s/v1/jobs/%d", s.base, posted.ID)
	if err == nil {
		err = s.do(client, http.MethodGet, jobURL+"?wait=30s", nil, http.StatusOK, &got)
	}
	end := time.Now()
	smp.seconds, smp.submitS = end.Sub(start).Seconds(), submitted.Sub(start).Seconds()
	if err != nil {
		smp.err = err
		return smp
	}
	smp.err = s.do(client, http.MethodDelete, jobURL, nil, http.StatusNoContent, nil)
	switch {
	case got.Result == nil:
		smp.err = fmt.Errorf("job %d: status %q code %q: %s", got.ID, got.Status, got.Code, got.Error)
		return smp
	case got.Result.TotalWeight != j.ref.weight || got.Result.NumEdges != j.ref.edges:
		smp.err = fmt.Errorf("job %d: weight %d over %d edges, reference %d over %d", got.ID,
			got.Result.TotalWeight, got.Result.NumEdges, j.ref.weight, j.ref.edges)
	}
	smp.modeled, smp.runS = got.Result.ModeledSeconds, got.Result.WallSeconds

	span := rec.add("job", start, end, -1, id)
	rec.add("serve.submit", start, submitted, span, id)
	wait := rec.add("serve.wait", submitted, end, span, id)
	// The server reports how long the machine ran, not when: the run span
	// is placed at the end of the wait it is part of.
	run := time.Duration(smp.runS * float64(time.Second))
	rec.add("serve.run", end.Add(-min(run, end.Sub(submitted))), end, wait, id)
	return smp
}

func (s *serveInst) counters() counters { return readCounters(s.reg) }

func (s *serveInst) layerValues(samples []sample, _ map[int]map[string]float64, before, after counters) (map[string]float64, error) {
	var secs, submit, overhead []float64
	for _, smp := range samples {
		if smp.err == nil {
			secs = append(secs, smp.seconds)
			submit = append(submit, smp.submitS)
			overhead = append(overhead, smp.seconds-smp.runS)
		}
	}
	jobs := float64(len(samples))
	histMean := func(name string) float64 {
		return ratio(delta(before, after, name+"_sum", ""), delta(before, after, name+"_count", ""))
	}
	return map[string]float64{
		"serve.submit_s_p50":      median(submit),
		"serve.overhead_s_p50":    median(overhead),
		"serve.latency_s_p99":     percentile(secs, 0.99),
		"serve.queue_wait_s_mean": histMean("serve_queue_wait_seconds"),
		"serve.run_s_mean":        histMean("serve_job_run_seconds"),
		"serve.batch_jobs_mean":   histMean("serve_batch_jobs"),
		"serve.rejected":          delta(before, after, "serve_jobs_rejected_total", ""),
		"serve.retried":           delta(before, after, "serve_jobs_retried_total", ""),
		"comm.messages":           delta(before, after, "kamsta_comm_messages_total", "") / jobs,
		"comm.bytes":              delta(before, after, "kamsta_comm_bytes_total", "") / jobs,
		"comm.supersteps":         delta(before, after, "kamsta_comm_supersteps_total", "") / jobs,
		"comm.barrier_wait_s":     delta(before, after, "kamsta_comm_barrier_wait_seconds_total", "") / jobs,
		"arena.bytes":             after.sum("kamsta_arena_bytes", ""),
	}, nil
}

func (s *serveInst) layerArgs() []string {
	return []string{"-family", "gnm", "-n", fmt.Sprint(serveVerts), "-m", fmt.Sprint(serveEdges), "-pes", "2"}
}

// close shuts the HTTP server down, drains the job server and drops the
// clients' connections, returning once every goroutine it owns has ended.
func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.srv.Drain(ctx))
	for _, c := range s.client {
		c.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
