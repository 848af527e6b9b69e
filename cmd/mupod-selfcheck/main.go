// Command mupod-selfcheck runs the differential self-check: the
// optimized kernels, quantizer, solvers and binary search are verified
// against slow reference implementations and the paper's numerical
// invariants over the built-in test networks, at workers=1 and a
// parallel worker count. Exit status is non-zero if any invariant
// fails — suitable for CI and for smoke-testing a build on a new
// platform.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/refcheck"
	"mupod/internal/testnet"
)

func main() {
	workers := flag.Int("workers", 0, "parallel worker count compared against workers=1 (0 = all CPUs)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	nets := flag.String("nets", "", "comma-separated subset of test networks (default all: "+strings.Join(testnet.ZooNames(), ",")+")")
	gridSteps := flag.Int("grid", 0, "brute-force Eq. 8 oracle resolution (0 = default)")
	verbose := flag.Bool("v", false, "print every check, not just failures")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	flag.Parse()

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-selfcheck:", err)
		os.Exit(1)
	}

	opts := refcheck.Options{
		Workers:   *workers,
		GridSteps: *gridSteps,
		Kernel:    kernels.Policy{IntraWorkers: *intraWorkers},
	}
	if *nets != "" {
		opts.Nets = strings.Split(*nets, ",")
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	ctx, stop := obs.SignalContext(context.Background())
	defer stop()
	rep, err := refcheck.Run(ctx, opts)
	if err != nil {
		if obs.Interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "mupod-selfcheck: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mupod-selfcheck:", err)
		os.Exit(1)
	}
	failed := rep.Failed()
	for _, c := range failed {
		label := c.Name
		if c.Net != "" {
			label = c.Net + "/" + c.Name
		}
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", label, c.Err)
	}
	fmt.Printf("%d checks, %d failed\n", len(rep.Checks), len(failed))
	if len(failed) > 0 {
		os.Exit(1)
	}
}
