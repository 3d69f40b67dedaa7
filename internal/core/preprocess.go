package core

import (
	"slices"

	"kamsta/internal/comm"
	"kamsta/internal/dsort"
	"kamsta/internal/graph"
	"kamsta/internal/localmst"
	"kamsta/internal/radix"
)

// localPreprocess implements LOCALPREPROCESSING (§IV-A): contract edges
// that are provably MST edges using only local information — a vertex
// contracts only along a local edge that is its component's lightest
// incident edge overall. Afterwards ghost labels are exchanged, edges are
// relabeled and the global sort order is re-established. Since only local
// edges were contracted, a local re-sort almost suffices; only the ranges
// of shared vertices can break global order across a boundary, in which
// case we fall back to the distributed sorter (the paper resorts those
// short cross-PE subsequences directly — same outcome).
//
// When the global fraction of local edges is below minLocalEdgeFrac the
// step is skipped entirely (§VI-B: the paper skips after a quick check when
// cut edges exceed 90%).
//
// inPlace reports (the same on every PE) that the result lies in localmst's
// Remaining slot, which nothing grabs again before the next job's
// localmst.Run: the caller may write it. Otherwise it is the caller's edges
// or the sorter's slot.
func localPreprocess(c *comm.Comm, edges []graph.Edge, l *graph.Layout,
	opt Options, mst *[]graph.Edge, rec *distArray) (_ []graph.Edge, _ *graph.Layout, inPlace bool) {

	// A vertex is contractible here iff its whole neighborhood is on this
	// PE: it appears as a source here and is not shared — a range test.
	lo, hi := l.LocalRange(c.Rank())
	isLocal := func(v graph.VID) bool { return lo <= v && v < hi }
	// Quick check: count local edges (both endpoints contractible).
	localCnt := 0
	for _, e := range edges {
		if isLocal(e.U) && isLocal(e.V) {
			localCnt++
		}
	}
	type frac struct{ Local, Total int }
	tot := comm.Allreduce(c, frac{localCnt, len(edges)}, func(a, b frac) frac {
		return frac{a.Local + b.Local, a.Total + b.Total}
	})
	c.ChargeCompute(len(edges))
	if tot.Total == 0 || float64(tot.Local)/float64(tot.Total) < minLocalEdgeFrac {
		return edges, l, false
	}

	res := localmst.Run(edges, isLocal, localmst.Config{Scratch: c.Scratch(), Filter: true})
	*mst = append(*mst, res.MSTEdges...)
	// Charge the contraction's actual edge touches (rounds compact the
	// edge set, so this is far below m·rounds).
	c.ChargeCompute(res.Work)

	// Strip identity labels in place — only contracted vertices need
	// broadcasting. res.Verts is ascending, so the stripped table stays a
	// valid dense rename table.
	labels := denseLabels{vertexIndex: vertexIndex{verts: res.Verts[:0]}, labels: res.Roots[:0]}
	for i, v := range res.Verts {
		if lbl := res.Roots[i]; v != lbl {
			labels.verts = append(labels.verts, v)
			labels.labels = append(labels.labels, lbl)
		}
	}
	if rec != nil {
		rec.record(c, labels, opt)
	}

	// Ghost updates: my surviving edges already carry my new source labels,
	// but other PEs' edges pointing at my contracted vertices do not. Push
	// labels along cut edges as in §IV-B; note the push must use the
	// ORIGINAL edges (whose reverse copies still exist at the receivers).
	// res.Remaining is relabelled in place: it is localmst's slot, which
	// nothing grabs again before the next job's localmst.Run, so it can be
	// (and often is) the rounds' working edge set.
	tbl := relabelTable{ghost: exchangeLabels(c, edges, l, labels, opt)}
	work := res.Remaining[:relabelPack(c, res.Remaining, res.Remaining, &tbl)]
	c.ChargeCompute(len(res.Remaining))

	// Re-establish the sorted distributed sequence: a local sort first.
	sortRenamedTargets(work)
	c.ChargeCompute(len(work) * dsort.Log2Ceil(len(work)+1))
	if dsort.IsGloballySorted(c, work, graph.LessLex) {
		work = dedupSorted(c, work)
		return work, graph.BuildLayout(c, work), true
	}
	work, l = redistribute(c, work, opt)
	return work, l, false
}

// sortRenamedTargets sorts edges that were sorted by graph.LessLex until
// RELABEL renamed ghost endpoints. A ghost is another PE's vertex, never a
// source here, so the sources still ascend and each source's run is sorted
// on its own; should they not, the whole slice is radix-sorted.
func sortRenamedTargets(edges []graph.Edge) {
	for lo, hi := 0, 0; lo < len(edges); lo = hi {
		sorted := true
		for hi = lo + 1; hi < len(edges) && edges[hi].U == edges[lo].U; hi++ {
			sorted = sorted && !graph.LessLex(edges[hi], edges[hi-1])
		}
		if hi < len(edges) && edges[hi].U < edges[lo].U {
			radix.Sort(edges, graph.KeyLex, graph.LessLex)
			return
		}
		if !sorted {
			slices.SortFunc(edges[lo:hi], cmpLex)
		}
	}
}

// cmpLex is graph.LessLex in slices.SortFunc's form.
func cmpLex(a, b graph.Edge) int {
	if graph.LessLex(a, b) {
		return -1
	}
	if graph.LessLex(b, a) {
		return 1
	}
	return 0
}
