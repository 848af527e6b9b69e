package experiments

import (
	"context"
	"fmt"
	"strings"

	"mupod/internal/exec"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/search"
	"mupod/internal/stats"
	"mupod/internal/zoo"
)

// Fig3Point is one σ_YŁ sample of the left plot of Fig. 3.
type Fig3Point struct {
	Sigma float64

	// Mean accuracy over repeats for the two schemes.
	EqualScheme    float64
	GaussianApprox float64

	// SigmaRealized is the output-error s.d. actually measured under
	// the equal-scheme injection — the paper's per-point check of the
	// Eq. 7 approximation ("the error is less than 5% of the target
	// σ_YŁ values").
	SigmaRealized float64

	// Worst-case deviation from the equal scheme when one layer takes
	// ξ = 0.8 and the rest share 0.2 (the paper's corner-case study,
	// drawn as black error bars).
	CornerMin, CornerMax float64
}

// Fig3Result reproduces Fig. 3: the σ→accuracy relationship under both
// schemes, the corner-case variation, and the output-error histogram
// against a perfect Gaussian.
type Fig3Result struct {
	Arch     zoo.Arch
	ExactAcc float64
	Points   []Fig3Point

	// Histogram of normalized output errors under equal-scheme
	// injection, to compare with N(0,1) (right plot of Fig. 3).
	Hist        *stats.Histogram
	HistMean    float64
	HistSD      float64 // of the normalized errors; paper: 0.99
	GaussFitErr float64
	HistSamples int
}

// Fig3 sweeps σ_YŁ over the given values on the chosen architecture
// (the paper uses AlexNet), evaluating both schemes `repeats` times and
// the ξ corner cases.
func Fig3(ctx context.Context, a zoo.Arch, sigmas []float64, repeats int, o Opts) (*Fig3Result, error) {
	o = o.withDefaults()
	if repeats <= 0 {
		repeats = 3 // "each point is the average of 3 measurements"
	}
	l, err := load(a)
	if err != nil {
		return nil, err
	}
	prof, err := profile.RunContext(ctx, l.net, l.test, o.profileConfig())
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{
		Arch:     a,
		ExactAcc: exactAccuracy(ctx, l, o.EvalImages, o),
	}
	L := prof.NumLayers()

	for _, sigma := range sigmas {
		pt := Fig3Point{Sigma: sigma, CornerMin: 1, CornerMax: 0}
		s1 := search.Options{Scheme: search.Scheme1Uniform, EvalImages: o.EvalImages, Repeats: repeats, Seed: o.Seed, Workers: o.Workers}
		s2 := search.Options{Scheme: search.Scheme2Gaussian, EvalImages: o.EvalImages, Repeats: repeats, Seed: o.Seed, Workers: o.Workers}
		pt.EqualScheme = search.EvaluateSigma(l.net, prof, l.test, sigma, s1)
		pt.GaussianApprox = search.EvaluateSigma(l.net, prof, l.test, sigma, s2)
		_, _, sdRatio, _ := outputErrorHistogram(l, prof, sigma, o)
		pt.SigmaRealized = sdRatio * sigma

		// Corner cases: ξ_K = 0.8, remaining layers share 0.2 equally.
		// The paper tests every corner; we sample up to 8 spread across
		// the network to bound the cost on 57+ layer models.
		step := L / 8
		if step < 1 {
			step = 1
		}
		for k := 0; k < L; k += step {
			xi := make([]float64, L)
			for j := range xi {
				xi[j] = 0.2 / float64(L-1)
			}
			xi[k] = 0.8
			r := rng.New(o.Seed ^ uint64(k)<<8 ^ 0xf19)
			plan := search.XiPlan(prof, sigma, xi, r)
			acc := search.Accuracy(l.net, l.test, o.EvalImages, 32, plan)
			if acc < pt.CornerMin {
				pt.CornerMin = acc
			}
			if acc > pt.CornerMax {
				pt.CornerMax = acc
			}
		}
		res.Points = append(res.Points, pt)
	}

	// Right plot: normalized output-error histogram under equal-scheme
	// injection at a mid-range σ.
	sigma := sigmas[len(sigmas)/2]
	hist, mean, sd, n := outputErrorHistogram(l, prof, sigma, o)
	res.Hist = hist
	res.HistMean = mean
	res.HistSD = sd
	res.HistSamples = n
	res.GaussFitErr = hist.GaussianFitError(0, 1)
	return res, nil
}

// outputErrorHistogram collects (Ŷ_Ł − Y_Ł)/σ samples under Scheme 1
// injection and bins them for comparison with N(0,1).
func outputErrorHistogram(l loaded, prof *profile.Profile, sigma float64, o Opts) (*stats.Histogram, float64, float64, int) {
	n := o.EvalImages
	if n > l.test.Len() {
		n = l.test.Len()
	}
	batch := l.test.Batch(0, n)
	// exact is cloned: ForwardInject below reuses the session's buffers.
	sess := exec.NewSession(exec.NewPlan(l.net))
	exact := sess.Forward(batch).Clone()
	r := rng.New(o.Seed ^ 0x4157)
	var errs []float64
	// Multiple noise realizations to reach a smooth histogram.
	for rep := 0; rep < 6; rep++ {
		plan := search.Scheme1Plan(prof, sigma, r)
		out := sess.ForwardInject(batch, plan)
		for i := range out.Data {
			errs = append(errs, out.Data[i]-exact.Data[i])
		}
	}
	mean, sd := stats.MeanStd(errs)
	hist := stats.NewHistogram(-4, 4, 40)
	if sd > 0 {
		for i := range errs {
			errs[i] = (errs[i] - mean) / sd
		}
		hist.AddAll(errs)
	}
	// Report mean/sd normalized by the TARGET σ, as the paper does
	// (s.d. = 0.99 of the target, mean ≈ 7e-5).
	return hist, mean / sigma, sd / sigma, len(errs)
}

// String renders the curves and histogram summary.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — accuracy vs σ_YŁ on %s (exact accuracy %.3f)\n\n", r.Arch, r.ExactAcc)
	b.WriteString("   σ_YŁ   equal_scheme  gaussian_approx  corner[min,max]   σ realized (Eq.7 err)\n")
	for _, p := range r.Points {
		relErr := 0.0
		if p.Sigma > 0 {
			relErr = (p.SigmaRealized - p.Sigma) / p.Sigma
		}
		fmt.Fprintf(&b, "%8.3f  %12.3f  %15.3f  [%.3f, %.3f]    %.3f (%+.1f%%)\n",
			p.Sigma, p.EqualScheme, p.GaussianApprox, p.CornerMin, p.CornerMax,
			p.SigmaRealized, 100*relErr)
	}
	fmt.Fprintf(&b, "\nOutput-error histogram vs N(0,1): sd/σ_target = %.3f (paper: 0.99), mean/σ_target = %.2g (paper: 7e-5),\n",
		r.HistSD, r.HistMean)
	fmt.Fprintf(&b, "normalized density error vs perfect Gaussian = %.3f over %d samples\n\n", r.GaussFitErr, r.HistSamples)
	b.WriteString(r.Hist.Render(48))
	return b.String()
}
