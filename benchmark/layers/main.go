// Command layers times direct calls into each layer's public functions: the
// "C" rows of the benchmark's per-layer ledger. It is its own program, not
// a package of the end-to-end runner, because it imports internal/*
// packages: a change to one of their signatures may stop this program from
// compiling, and must not take the end-to-end gate with it. The runner
// executes it once per traced run and merges what it prints: a JSON object
// of metrics and one span per microcall.
//
// Collective microcalls run SPMD in a bench-owned comm.NewWorld and are
// timed on rank 0 between two barriers; kernel microcalls run on one PE's
// share of the generated instance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"kamsta/internal/alltoall"
	"kamsta/internal/comm"
	"kamsta/internal/core"
	"kamsta/internal/dsort"
	"kamsta/internal/enc"
	"kamsta/internal/gen"
	"kamsta/internal/graph"
	"kamsta/internal/localmst"
	"kamsta/internal/par"
	"kamsta/internal/radix"
	"kamsta/internal/seqmst"
)

type spanOut struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// ledger collects the metrics and spans the program prints.
type ledger struct {
	epoch   time.Time
	Metrics map[string]float64 `json:"metrics"`
	Spans   []spanOut          `json:"spans"`
}

// call runs one microcall under a span named after its metric.
func (l *ledger) call(name string, f func() float64) {
	start := time.Now()
	l.Metrics[name] = f()
	l.Spans = append(l.Spans, spanOut{Name: name,
		StartUS: float64(start.Sub(l.epoch).Nanoseconds()) / 1e3,
		DurUS:   float64(time.Since(start).Nanoseconds()) / 1e3})
}

// worldSeconds runs op n times on every PE of w and returns rank 0's wall
// between the barrier before the first and the barrier after the last.
// setup runs per PE, untimed, and returns that PE's op.
func worldSeconds(w *comm.World, n int, setup func(c *comm.Comm) func()) float64 {
	var secs float64
	w.Run(func(c *comm.Comm) {
		op := setup(c)
		comm.Barrier(c)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		comm.Barrier(c)
		if c.Rank() == 0 {
			secs = time.Since(start).Seconds()
		}
	})
	return secs
}

// batches is how many times a repeated microcall is timed; its metric is
// the median batch, which a neighbour's burst on a shared box does not move.
const batches = 5

// medianOf runs f reps times and returns the median of what it returns.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	sort.Float64s(xs)
	return xs[reps/2]
}

// seconds times one call of f.
func seconds(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

var sink int

func main() {
	family := flag.String("family", "gnm", "graph family of the instance the kernels run on")
	n := flag.Uint64("n", 1<<15, "instance vertices")
	m := flag.Uint64("m", 1<<19, "instance undirected edges")
	p := flag.Int("pes", 16, "PEs of the bench-owned world")
	seed := flag.Uint64("seed", 42, "instance seed")
	scale := flag.String("scale", "full", "full or smoke (fewer repetitions, smaller kernels)")
	flag.Parse()
	fam, err := gen.ParseFamily(*family)
	if err != nil || *p < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "layers: bad arguments: %v\n", err)
		os.Exit(2)
	}
	// loops scales every batch's repetition count; kernelN is the kernels'
	// input size (2^20 elements at full scale).
	loops, kernelN := 1.0, 1<<20
	if *scale == "smoke" {
		loops, kernelN = 0.02, 1<<12
	}
	iters := func(full int) int { return max(1, int(float64(full)*loops)) }

	l := &ledger{epoch: time.Now(), Metrics: map[string]float64{}}
	spec := gen.Spec{Family: fam, N: *n, M: *m, Seed: *seed + 1}
	sortOpt := core.DefaultOptions().Sort
	w := comm.NewWorld(*p)
	w.Start()
	defer w.Close()

	// gen: the two halves of gen.Build, timed apart. raw keeps every PE's
	// edges as generated (unsorted), fin the finished distributed input.
	raw, fin := make([][]graph.Edge, *p), make([][]graph.Edge, *p)
	l.call("gen.generate_s", func() float64 {
		return medianOf(3, func() float64 {
			return worldSeconds(w, 1, func(c *comm.Comm) func() {
				return func() { raw[c.Rank()] = gen.Generate(c, spec) }
			})
		})
	})
	l.call("gen.finish_s", func() float64 {
		return medianOf(3, func() float64 {
			return worldSeconds(w, 1, func(c *comm.Comm) func() {
				// Finish filters its input in place; give it a copy.
				in := append([]graph.Edge(nil), raw[c.Rank()]...)
				return func() {
					out, _ := gen.Finish(c, in, sortOpt)
					fin[c.Rank()] = out
				}
			})
		})
	})
	var all []graph.Edge
	for _, share := range fin {
		all = append(all, share...)
	}
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "layers: the instance has no edges")
		os.Exit(1)
	}

	l.call("dsort.sort_medges_per_s", func() float64 {
		secs := medianOf(3, func() float64 {
			return worldSeconds(w, 1, func(c *comm.Comm) func() {
				mine := raw[c.Rank()]
				return func() { dsort.Sort(c, mine, dsort.ByKey(graph.LessLex, graph.KeyLex), sortOpt) }
			})
		})
		total := 0
		for _, r := range raw {
			total += len(r)
		}
		return float64(total) / secs / 1e6
	})

	// Small-message exchanges: 64-element buckets to every PE.
	exchangeUS := func(s alltoall.Strategy) func() float64 {
		return func() float64 {
			reps := iters(100)
			secs := medianOf(batches, func() float64 {
				return worldSeconds(w, reps, func(c *comm.Comm) func() {
					send := make([][]uint64, c.P())
					for i := range send {
						send[i] = make([]uint64, 64)
					}
					return func() { alltoall.Exchange(c, s, send) }
				})
			})
			return secs / float64(reps) * 1e6
		}
	}
	l.call("alltoall.direct_us", exchangeUS(alltoall.Direct))
	l.call("alltoall.grid_us", exchangeUS(alltoall.Grid))

	// comm on the default (shm) transport: latency of the two smallest
	// collectives, bandwidth and allocation of the raw bucket exchange.
	l.call("comm.barrier_us", func() float64 {
		reps := iters(1000)
		secs := medianOf(batches, func() float64 {
			return worldSeconds(w, reps, func(c *comm.Comm) func() { return func() { comm.Barrier(c) } })
		})
		return secs / float64(reps) * 1e6
	})
	l.call("comm.allreduce_us", func() float64 {
		reps := iters(1000)
		secs := medianOf(batches, func() float64 {
			return worldSeconds(w, reps, func(c *comm.Comm) func() {
				return func() { comm.Allreduce(c, c.Rank(), func(a, b int) int { return a + b }) }
			})
		})
		return secs / float64(reps) * 1e6
	})
	const bucket = 64 << 10 / 8 // 64 KiB of uint64
	sends := make([][][]uint64, *p)
	for r := range sends {
		sends[r] = make([][]uint64, *p)
		for i := range sends[r] {
			sends[r][i] = make([]uint64, bucket)
		}
	}
	var allocKB float64
	l.call("comm.rawalltoall_mb_per_s", func() float64 {
		reps := iters(10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		secs := medianOf(batches, func() float64 {
			return worldSeconds(w, reps, func(c *comm.Comm) func() {
				send := sends[c.Rank()]
				return func() { comm.RawAlltoall(c, send) }
			})
		})
		runtime.ReadMemStats(&after)
		allocKB = float64(after.TotalAlloc-before.TotalAlloc) / float64(batches*reps) / 1024
		return float64(*p**p*bucket*8*reps) / secs / 1e6
	})
	l.Metrics["comm.rawalltoall_alloc_kb"] = allocKB

	// enc: the codec a TCP world moves edge slices with, on one PE's share.
	codec := enc.CodecFor[[]graph.Edge]()
	share := fin[0]
	var wire []byte
	l.call("enc.encode_mb_per_s", func() float64 {
		reps := iters(20)
		secs := medianOf(batches, func() float64 {
			return seconds(func() {
				for i := 0; i < reps; i++ {
					wire = codec.Append(wire[:0], share)
				}
			})
		})
		return float64(len(wire)*reps) / secs / 1e6
	})
	l.call("enc.decode_mb_per_s", func() float64 {
		reps := iters(20)
		secs := medianOf(batches, func() float64 {
			return seconds(func() {
				for i := 0; i < reps; i++ {
					if _, _, err := codec.Decode(wire); err != nil {
						fmt.Fprintf(os.Stderr, "layers: enc round trip: %v\n", err)
						os.Exit(1)
					}
				}
			})
		})
		return float64(len(wire)*reps) / secs / 1e6
	})

	// Kernels on kernelN edges in generation order (the instance cycled).
	big := make([]graph.Edge, 0, kernelN)
	for i := 0; len(big) < kernelN; i++ {
		r := raw[i%len(raw)]
		big = append(big, r[:min(len(r), kernelN-len(big))]...)
	}
	work := make([]graph.Edge, kernelN)
	l.call("radix.sort_mkeys_per_s", func() float64 {
		return float64(kernelN) / 1e6 / medianOf(5, func() float64 {
			copy(work, big)
			return seconds(func() { radix.Sort(work, graph.KeyLex, graph.LessLex) })
		})
	})
	pool := par.NewPool(1)
	l.call("par.filter_melems_per_s", func() float64 {
		return float64(kernelN) / 1e6 / medianOf(5, func() float64 {
			return seconds(func() {
				sink += len(par.Filter(pool, big, func(e graph.Edge) bool { return e.W < 128 }))
			})
		})
	})
	ints, sums := make([]int, kernelN), make([]int, kernelN)
	for i := range ints {
		ints[i] = i & 7
	}
	l.call("par.prefixsum_melems_per_s", func() float64 {
		return float64(kernelN) / 1e6 / medianOf(5, func() float64 {
			return seconds(func() { sink += par.PrefixSum(pool, ints, sums) })
		})
	})
	l.call("par.for_overhead_us", func() float64 {
		reps := iters(1 << 18)
		secs := medianOf(batches, func() float64 {
			return seconds(func() {
				for i := 0; i < reps; i++ {
					pool.For(1, func(lo, hi int) { sink += hi - lo })
				}
			})
		})
		return secs / float64(reps) * 1e6
	})

	// localmst on PE 0's share, cut to the subgraph its vertex range
	// induces so the input stays symmetric (the last vertex may continue on
	// PE 1, so it is left out).
	l.call("localmst.msf_medges_per_s", func() float64 {
		lo, hi := share[0].U, share[len(share)-1].U
		var local []graph.Edge
		for _, e := range share {
			if e.U < hi && e.V >= lo && e.V < hi {
				local = append(local, e)
			}
		}
		if len(local) == 0 {
			return 0
		}
		secs := medianOf(3, func() float64 {
			in := append([]graph.Edge(nil), local...)
			return seconds(func() { sink += len(localmst.MSF(in, pool).MSTEdges) })
		})
		return float64(len(local)) / 1e6 / secs
	})

	// seqmst: the plain single-threaded baseline on the whole instance.
	l.call("seqmst.kruskal_s", func() float64 {
		top := graph.VID(0)
		for _, e := range all {
			top = max(top, e.U, e.V)
		}
		undirected := seqmst.UndirectedFromDirected(all)
		return medianOf(3, func() float64 {
			return seconds(func() { sink += len(seqmst.Kruskal(int(top), undirected).Edges) })
		})
	})

	l.Metrics["graph.edge_bytes"] = float64(unsafe.Sizeof(graph.Edge{}))

	if err := json.NewEncoder(os.Stdout).Encode(l); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}
