// Command mupod-pareto sweeps the blended bandwidth/energy objective on
// one network and prints the non-dominated frontier of operating points
// — the explicit multi-objective view of the paper's Sec. V-D (see
// internal/pareto). With -nsga2 the sweep warm-starts a genetic search
// that fills the gaps between the α blends. Use -csv for
// machine-readable output, and -ref-front to score the frontier against
// a saved reference (GD/IGD/spread).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"mupod/internal/kernels"
	"mupod/internal/obs"
	"mupod/internal/pareto"
	"mupod/internal/profile"
	"mupod/internal/report"
	"mupod/internal/search"
	"mupod/internal/zoo"
)

func main() {
	model := flag.String("model", "googlenet", "architecture to sweep")
	drop := flag.Float64("drop", 0.05, "relative accuracy drop constraint")
	weightBits := flag.Int("w", 8, "uniform weight bitwidth for the energy model")
	images := flag.Int("images", 20, "profiling images")
	points := flag.Int("points", 10, "Δ points per layer regression")
	eval := flag.Int("eval", 200, "images per accuracy evaluation")
	seed := flag.Uint64("seed", 1, "noise and search seed")
	alphasFlag := flag.String("alphas", "", "comma-separated sweep blend weights in [0,1] (default the 0..1 step-0.1 grid)")
	nsga2 := flag.Bool("nsga2", false, "run the NSGA-II genetic search on top of the α-sweep")
	gens := flag.Int("gens", 20, "NSGA-II generations")
	pop := flag.Int("pop", 32, "NSGA-II population size")
	refFront := flag.String("ref-front", "", "CSV of a reference front (mupod-pareto -csv output) to score GD/IGD against")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	all := flag.Bool("all", false, "print every sweep point, not only the frontier")
	workers := flag.Int("workers", 0, "evaluation worker count (0 = all CPUs; results are identical at any count)")
	intraWorkers := flag.Int("intra-workers", 0, "goroutines one layer's kernels shard across (0 or 1 = serial; results are identical at any value)")
	logSpec := flag.String("log", "", "log level[,format]: debug|info|warn|error, text|json (default $MUPOD_LOG or info,text)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of the run to this path")
	flag.Parse()

	kpol := kernels.Policy{IntraWorkers: *intraWorkers}
	if err := kpol.Validate(); err != nil {
		fatal(err)
	}
	if _, err := obs.Setup(*logSpec); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-pareto:", err)
		os.Exit(1)
	}
	alphas, err := parseAlphas(*alphasFlag)
	if err != nil {
		fatal(err)
	}
	ctx, flushTrace := obs.TraceToFile(context.Background(), *traceOut, 0)
	ctx, stop := obs.SignalContext(ctx)
	defer stop()

	arch := zoo.Arch(*model)
	if _, ok := zoo.AnalyzableLayers[arch]; !ok {
		fmt.Fprintf(os.Stderr, "mupod-pareto: unknown model %q\n", *model)
		os.Exit(1)
	}
	net, err := zoo.Load(arch)
	if err != nil {
		fatal(err)
	}
	_, test := zoo.Data(arch)

	prof, err := profile.RunContext(ctx, net, test, profile.Config{Images: *images, Points: *points, Seed: *seed, Workers: *workers, Kernel: kpol})
	if err != nil {
		fatalCtx(ctx, err)
	}
	sr, err := search.RunContext(ctx, net, prof, test, search.Options{
		Scheme: search.Scheme2Gaussian, RelDrop: *drop, EvalImages: *eval, Seed: *seed ^ 0x5eed, Workers: *workers, Kernel: kpol,
	})
	if err != nil {
		fatalCtx(ctx, err)
	}

	var sweep, front []pareto.Point
	var ref [2]float64
	var hv, sweepHV float64
	if *nsga2 {
		res, err := pareto.RunNSGA2(ctx, prof, sr.SigmaYL, pareto.NSGA2Config{
			Generations: *gens, PopSize: *pop, Seed: *seed, Workers: *workers,
			Alphas: alphas, WeightBits: *weightBits,
		})
		if err != nil {
			fatalCtx(ctx, err)
		}
		sweep, front = res.Sweep, res.Front
		ref, hv, sweepHV = res.RefPoint, res.Hypervolume, res.SweepHypervolume
	} else {
		sweep, err = pareto.SweepContext(ctx, prof, sr.SigmaYL, pareto.Config{Alphas: alphas, WeightBits: *weightBits})
		if err != nil {
			fatalCtx(ctx, err)
		}
		front = pareto.NonDominated(sweep)
		ref = pareto.RefPoint(sweep)
		hv = pareto.Hypervolume(sweep, ref)
		sweepHV = hv
	}
	if err := flushTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "mupod-pareto: writing trace:", err)
		os.Exit(1)
	}

	shown := front
	if *all {
		shown = sweep
	}
	t := report.New("alpha", "input_bits", "mac_energy_pJ", "eff_input_bits", "eff_mac_bits", "hypervolume")
	for i, p := range shown {
		// The hypervolume column is cumulative: the area the first i+1
		// rows dominate at the common reference point, so the last row
		// of a frontier listing equals the front's total hypervolume.
		t.AddStrings(
			alphaLabel(p.Alpha),
			fmt.Sprintf("%d", p.InputBits),
			fmt.Sprintf("%.1f", p.MACEnergy),
			fmt.Sprintf("%.2f", p.EffInputBits),
			fmt.Sprintf("%.2f", p.EffMACBits),
			fmt.Sprintf("%.4g", pareto.Hypervolume(shown[:i+1], ref)))
	}
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	mode := "sweep"
	if *nsga2 {
		mode = fmt.Sprintf("NSGA-II (%d gens × %d pop)", *gens, *pop)
	}
	fmt.Printf("Pareto %s — %s @ %.0f%% relative drop (σ_YŁ = %.3f): %d sweep points, %d shown\n",
		mode, arch, *drop*100, sr.SigmaYL, len(sweep), len(shown))
	fmt.Printf("hypervolume %.6g at ref (%.0f, %.1f)", hv, ref[0], ref[1])
	if *nsga2 {
		fmt.Printf(" (sweep alone %.6g)", sweepHV)
	}
	fmt.Print("\n\n", t.String())

	if *refFront != "" {
		refPts, err := loadRefFront(*refFront)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nvs reference front %s (%d points):\n", *refFront, len(refPts))
		fmt.Printf("  GD  = %.6g\n  IGD = %.6g\n  spread = %.6g\n",
			pareto.GenerationalDistance(front, refPts),
			pareto.InvertedGenerationalDistance(front, refPts),
			pareto.Spread(front))
	}
}

// alphaLabel prints a sweep blend weight, or "ga" for points discovered
// by the genetic search (which carry Alpha = -1).
func alphaLabel(a float64) string {
	if a < 0 {
		return "ga"
	}
	return fmt.Sprintf("%.2f", a)
}

// parseAlphas turns "-alphas 0,0.25,1" into a validated, deduplicated,
// ascending weight list. Empty input selects the default grid.
func parseAlphas(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		a, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("-alphas: %q is not a number", f)
		}
		if a < 0 || a > 1 {
			return nil, fmt.Errorf("-alphas: %g outside [0,1]", a)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-alphas: no weights in %q", s)
	}
	sort.Float64s(out)
	dedup := out[:1]
	for _, a := range out[1:] {
		if a != dedup[len(dedup)-1] {
			dedup = append(dedup, a)
		}
	}
	return dedup, nil
}

// loadRefFront reads a reference front from this tool's own -csv output
// (header "alpha,input_bits,mac_energy_pJ,..."); extra columns are
// ignored so hand-written two-column files also work.
func loadRefFront(path string) ([]pareto.Point, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pts []pareto.Point
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		cols := strings.Split(line, ",")
		if len(cols) < 3 {
			return nil, fmt.Errorf("ref-front %s:%d: want at least 3 columns (alpha,input_bits,mac_energy_pJ)", path, i+1)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(cols[1]), 64); err != nil && i == 0 {
			continue // header row
		}
		bits, err := strconv.ParseInt(strings.TrimSpace(cols[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ref-front %s:%d: input_bits %q: %v", path, i+1, cols[1], err)
		}
		energy, err := strconv.ParseFloat(strings.TrimSpace(cols[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("ref-front %s:%d: mac_energy_pJ %q: %v", path, i+1, cols[2], err)
		}
		pts = append(pts, pareto.Point{InputBits: bits, MACEnergy: energy})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("ref-front %s: no points", path)
	}
	return pts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mupod-pareto:", err)
	os.Exit(1)
}

func fatalCtx(ctx context.Context, err error) {
	if obs.Interrupted(ctx) {
		fmt.Fprintln(os.Stderr, "mupod-pareto: interrupted")
		os.Exit(130)
	}
	fatal(err)
}
