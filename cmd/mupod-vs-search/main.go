// Command mupod-vs-search reproduces the Sec. VI-A cost comparison: the
// paper's analytic pipeline against the Stripes-style per-layer dynamic
// search, on wall-clock time, accuracy-evaluation count and result
// quality.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mupod/internal/experiments"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/zoo"
)

func main() {
	model := flag.String("model", "googlenet", "network to compare on")
	drop := flag.Float64("drop", 0.05, "relative accuracy drop constraint")
	images := flag.Int("images", 16, "profiling images")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupod-vs-search: %v\n", err)
		os.Exit(2)
	}

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-vs-search:", err)
		os.Exit(1)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	a := zoo.Arch(*model)
	if _, ok := zoo.AnalyzableLayers[a]; !ok {
		fmt.Fprintf(os.Stderr, "mupod-vs-search: unknown model %q\n", *model)
		os.Exit(1)
	}
	res, err := experiments.MethodVsSearch(ctx, a, *drop, experiments.Opts{
		ProfileImages: *images,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       *workers,
		Kernel:        kpol,
	})
	if err != nil {
		if obs.Interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "mupod-vs-search: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mupod-vs-search:", err)
		os.Exit(1)
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-vs-search: writing trace:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
}
