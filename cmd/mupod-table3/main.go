// Command mupod-table3 regenerates Table III of the paper: effective
// bitwidths, bandwidth savings and MAC-energy savings for the eight
// CNNs at 1% and 5% relative accuracy drops, under both objectives.
//
// The full run profiles every layer of every network (including the
// 156-layer ResNet-152 sim); expect a few minutes on one core. Use
// -models to restrict the set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"mupod/internal/experiments"
	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/zoo"
)

func main() {
	models := flag.String("models", "", "comma-separated subset (default: all eight)")
	drops := flag.String("drops", "0.01,0.05", "comma-separated relative accuracy drops")
	images := flag.Int("images", 16, "profiling images")
	points := flag.Int("points", 8, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupod-table3: %v\n", err)
		os.Exit(2)
	}

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-table3:", err)
		os.Exit(1)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	archs := zoo.All
	if *models != "" {
		archs = nil
		for _, m := range strings.Split(*models, ",") {
			a := zoo.Arch(strings.TrimSpace(m))
			if _, ok := zoo.AnalyzableLayers[a]; !ok {
				fmt.Fprintf(os.Stderr, "mupod-table3: unknown model %q\n", m)
				os.Exit(1)
			}
			archs = append(archs, a)
		}
	}
	var relDrops []float64
	for _, d := range strings.Split(*drops, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(d), "%g", &v); err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "mupod-table3: bad drop %q\n", d)
			os.Exit(1)
		}
		relDrops = append(relDrops, v)
	}

	res, err := experiments.Table3(ctx, archs, relDrops, experiments.Opts{
		ProfileImages: *images,
		ProfilePoints: *points,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       *workers,
		Kernel:        kpol,
	})
	if err != nil {
		if obs.Interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "mupod-table3: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mupod-table3:", err)
		os.Exit(1)
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-table3: writing trace:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
}
