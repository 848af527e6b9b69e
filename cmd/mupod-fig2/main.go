// Command mupod-fig2 regenerates Fig. 2 of the paper: the per-layer
// linear relationship between the injected uniform-noise boundary Δ_XK
// and the induced output-error standard deviation σ_{Y_K→Ł} (Eq. 5),
// measured on VGG-19 and GoogleNet (or any other zoo network).
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
	models := flag.String("models", "vgg19,googlenet", "comma-separated networks to measure")
	images := flag.Int("images", 40, "profiling images")
	points := flag.Int("points", 16, "Δ points per layer regression")
	seed := flag.Uint64("seed", 1, "noise seed")
	scatter := flag.Int("scatter", 2, "number of layers to render as ASCII scatter plots")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupod-fig2: %v\n", err)
		os.Exit(2)
	}

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-fig2:", err)
		os.Exit(1)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	for _, m := range strings.Split(*models, ",") {
		a := zoo.Arch(strings.TrimSpace(m))
		if _, ok := zoo.AnalyzableLayers[a]; !ok {
			fmt.Fprintf(os.Stderr, "mupod-fig2: unknown model %q\n", m)
			os.Exit(1)
		}
		res, err := experiments.Fig2(ctx, a, experiments.Opts{
			ProfileImages: *images,
			ProfilePoints: *points,
			Seed:          *seed,
			Workers:       *workers,
			Kernel:        kpol,
		})
		if err != nil {
			if obs.Interrupted(ctx) {
				fmt.Fprintln(os.Stderr, "mupod-fig2: interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "mupod-fig2:", err)
			os.Exit(1)
		}
		fmt.Print(res.String())
		for i := 0; i < *scatter && i < len(res.Layers); i++ {
			// Spread the rendered layers across the network.
			idx := i * (len(res.Layers) - 1) / max(1, *scatter-1)
			fmt.Println()
			fmt.Print(res.ScatterASCII(idx, 48, 12))
		}
		fmt.Println()
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-fig2: writing trace:", err)
		os.Exit(1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
