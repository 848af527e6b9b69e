// Command mupod-fig3 regenerates Fig. 3 of the paper: classification
// accuracy versus the output-error budget σ_YŁ under the two validation
// schemes (equal_scheme and gaussian_approx), the worst-case ξ corner
// study (error bars), and the output-error histogram compared against a
// perfect N(0,1).
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
	model := flag.String("model", "alexnet", "network to sweep")
	sigmaList := flag.String("sigmas", "0.05,0.1,0.2,0.4,0.8,1.6,3.2,6.4", "comma-separated σ_YŁ values")
	repeats := flag.Int("repeats", 3, "noise realizations per point")
	images := flag.Int("images", 24, "profiling images")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise seed")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mupod-fig3: %v\n", err)
		os.Exit(2)
	}

	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-fig3:", err)
		os.Exit(1)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	a := zoo.Arch(*model)
	if _, ok := zoo.AnalyzableLayers[a]; !ok {
		fmt.Fprintf(os.Stderr, "mupod-fig3: unknown model %q\n", *model)
		os.Exit(1)
	}
	var sigmas []float64
	for _, s := range strings.Split(*sigmaList, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "mupod-fig3: bad σ %q\n", s)
			os.Exit(1)
		}
		sigmas = append(sigmas, v)
	}

	res, err := experiments.Fig3(ctx, a, sigmas, *repeats, experiments.Opts{
		ProfileImages: *images,
		EvalImages:    *eval,
		Seed:          *seed,
		Workers:       *workers,
		Kernel:        kpol,
	})
	if err != nil {
		if obs.Interrupted(ctx) {
			fmt.Fprintln(os.Stderr, "mupod-fig3: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mupod-fig3:", err)
		os.Exit(1)
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-fig3: writing trace:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
}
