package search

import (
	"math"
	"testing"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/nn"
	"mupod/internal/obs"
	"mupod/internal/rng"
	"mupod/internal/testnet"
)

// perProbeScheme2 is the Scheme-2 evaluation as a search probe would
// run it without the clean-logits cache: a fresh clean forward per eval
// batch, then the probe's pre-split per-batch Gaussian streams added to
// the logits in element order before argmax.
func perProbeScheme2(net *nn.Network, ds *dataset.Dataset, sigma float64, opts Options) float64 {
	opts = opts.withDefaults(ds)
	n, bs := evalSize(ds, opts.EvalImages, opts.BatchSize)
	nBatches := (n + bs - 1) / bs
	sess := exec.NewSession(exec.NewPlan(net))
	r := rng.New(opts.Seed ^ math.Float64bits(sigma))
	total := 0.0
	for rep := 0; rep < opts.Repeats; rep++ {
		streams := make([]*rng.RNG, nBatches)
		for b := range streams {
			streams[b] = r.Split()
		}
		c := 0
		for b := 0; b < nBatches; b++ {
			start := b * bs
			logits := sess.Forward(ds.Batch(start, min(bs, n-start)))
			for i := range logits.Data {
				logits.Data[i] += streams[b].NormalScaled(0, sigma)
			}
			for i, p := range nn.Argmax(logits) {
				if p == ds.Labels[start+i] {
					c++
				}
			}
		}
		total += float64(c) / float64(n)
	}
	return total / float64(opts.Repeats)
}

// TestScheme2ReuseBitIdentical pins that scoring noisy copies of the
// cached clean logits is float64-for-float64 the per-probe forward it
// replaces, for EvaluateSigma and for every probe of a search, at
// several worker counts and repeat counts. EvalImages=120 at batch 32
// leaves a partial last batch.
func TestScheme2ReuseBitIdentical(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	for _, w := range []int{1, 4} {
		for _, reps := range []int{1, 3} {
			opts := Options{Scheme: Scheme2Gaussian, RelDrop: 0.05, EvalImages: 120, Repeats: reps, Seed: 11, Workers: w}
			for _, sigma := range []float64{0.3, 2.5} {
				got := EvaluateSigma(net, prof, te, sigma, opts)
				if want := perProbeScheme2(net, te, sigma, opts); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers=%d repeats=%d σ=%v: EvaluateSigma %v, per-probe forward %v", w, reps, sigma, got, want)
				}
			}
			res, err := Run(net, prof, te, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := perProbeScheme2(net, te, 0, Options{EvalImages: 120}); math.Float64bits(res.ExactAccuracy) != math.Float64bits(want) {
				t.Fatalf("workers=%d: exact accuracy %v, clean forward %v", w, res.ExactAccuracy, want)
			}
			for _, p := range res.Trace {
				if want := perProbeScheme2(net, te, p.Sigma, opts); math.Float64bits(p.Accuracy) != math.Float64bits(want) {
					t.Fatalf("workers=%d repeats=%d probe σ=%v: accuracy %v, per-probe forward %v", w, reps, p.Sigma, p.Accuracy, want)
				}
			}
		}
	}
}

// TestSearchForwardCount pins the cost model: a Scheme-2 search runs
// exactly one clean forward per eval batch however many probes and
// repeats it makes, while Scheme 1 (noise at every analyzable layer)
// still runs one injected forward per batch per probe per repeat on
// top of the exact pass.
func TestSearchForwardCount(t *testing.T) {
	net, _, te := testnet.Trained()
	prof := sharedProfile(t)
	m := exec.EnableMetrics(obs.NewRegistry())
	t.Cleanup(exec.DisableMetrics)
	const evalImages, batch, reps = 120, 32, 2
	nBatches := uint64((evalImages + batch - 1) / batch)
	for _, scheme := range []Scheme{Scheme1Uniform, Scheme2Gaussian} {
		opts := Options{Scheme: scheme, RelDrop: 0.05, EvalImages: evalImages, BatchSize: batch, Repeats: reps, Seed: 3, Workers: 2}
		before := m.Forwards.Value()
		res, err := Run(net, prof, te, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations < 2 {
			t.Fatalf("%v: only %d probes; the count would not tell reuse apart", scheme, res.Evaluations)
		}
		want := nBatches
		if scheme == Scheme1Uniform {
			want += nBatches * uint64(res.Evaluations*reps)
		}
		if got := m.Forwards.Value() - before; got != want {
			t.Fatalf("%v: %d probes ran %d forwards, want %d", scheme, res.Evaluations, got, want)
		}
	}
	before := m.Forwards.Value()
	EvaluateSigma(net, prof, te, 1, Options{Scheme: Scheme2Gaussian, EvalImages: evalImages, BatchSize: batch, Repeats: 3})
	if got := m.Forwards.Value() - before; got != nBatches {
		t.Fatalf("Scheme-2 EvaluateSigma with 3 repeats ran %d forwards, want %d", got, nBatches)
	}
}
