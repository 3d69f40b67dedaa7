// Command mstverify cross-checks every distributed algorithm against
// sequential Kruskal, either on a sweep of generated instances or on a
// graph file — the repository's end-to-end smoke test in executable form.
// It rides internal/bench's harness (bench.Verify): one warm Machine at a
// time, rebuilt once per PE count.
//
// Usage:
//
//	mstverify                  # default generated sweep
//	mstverify -n 2000 -m 12000 -ps 2,4,8 -seeds 5
//	mstverify -input g.kg -ps 1,4,8   # file-backed cross-check
//	mstverify -alg boruvka,mndmst     # restrict the checked algorithms
//
// Exit status: 0 when every check passed, 1 on a wrong or failed result, 2
// on a bad flag, 130 on ^C; -metrics/-trace are written in all but the 2.
package main

import (
	"context"
	"flag"
	"os"

	"kamsta/internal/bench"
	"kamsta/internal/cliobs"
)

func main() {
	n := flag.Uint64("n", 600, "vertices per instance")
	m := flag.Uint64("m", 3000, "undirected edges per instance")
	seeds := flag.Uint64("seeds", 3, "number of seeds per configuration")
	threads := flag.Int("threads", 2, "threads per PE")
	sweep := cliobs.RegisterSweep(1, 3, 4, 8)
	flag.Parse()

	cliobs.Run("mstverify", sweep.Flags, func(ctx context.Context) error {
		scale, algs, err := sweep.Scale()
		if err != nil {
			return err
		}
		if sweep.Input != "" {
			return bench.VerifyFile(ctx, os.Stdout, scale, *threads, algs, sweep.Input, sweep.Format)
		}
		return bench.Verify(ctx, os.Stdout, scale, *threads, algs, *n, *m, *seeds)
	})
}
