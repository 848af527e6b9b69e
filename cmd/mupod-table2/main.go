// Command mupod-table2 regenerates Table II of the paper: the AlexNet
// per-layer bitwidth optimization example for the two objectives
// (#Input bandwidth and #MAC energy) at a 1% relative accuracy drop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mupod/internal/experiments"
	"mupod/internal/kernels"
	"mupod/internal/obs"
)

func main() {
	images := flag.Int("images", 30, "profiling images")
	points := flag.Int("points", 12, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupod-table2: %v\n", err)
		os.Exit(2)
	}

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-table2:", err)
		os.Exit(1)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	res, err := experiments.Table2(ctx, experiments.Opts{
		ProfileImages: *images,
		ProfilePoints: *points,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       *workers,
		Kernel:        kpol,
	})
	if err != nil {
		if obs.Interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "mupod-table2: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mupod-table2:", err)
		os.Exit(1)
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-table2: writing trace:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
}
