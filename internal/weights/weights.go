// Package weights extends the paper's method from activations to
// WEIGHTS at layer granularity. Eq. 2 of the paper is symmetric in the
// two operands of the dot product (δ_y ≈ Σ x_i·δ_wi + Σ w_i·δ_xi), so
// the same cross-layer postulate applies to weight rounding noise:
//
//	Δ_WK ≈ λw_K·σ_{Y_K→Ł} + θw_K
//
// with constants measurable by injecting uniform noise into layer K's
// weights and regressing, exactly like internal/profile does for
// inputs. Sec. V-E of the paper appends a UNIFORM weight bitwidth
// search (as Stripes/Loom do); this package is the natural extension
// the paper leaves open: a JOINT per-layer decomposition of one output
// error budget across 2Ł noise sources (Ł activation + Ł weight),
// solved by the same simplex optimizer.
package weights

import (
	"context"
	"fmt"
	"math"

	"mupod/internal/core"
	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/nn"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/search"
	"mupod/internal/stats"
	"mupod/internal/tensor"
)

// LayerWeightProfile is the fitted weight-noise model of one layer.
type LayerWeightProfile struct {
	NodeID int
	Name   string

	Lambda, Theta  float64
	R2             float64
	MaxRelErr      float64
	Deltas, Sigmas []float64

	// MaxAbs is max |w| (sets the integer bits of the weight format);
	// Params is the number of weight scalars (the storage ρ).
	MaxAbs  float64
	IntBits int
	Params  int
	MACs    int
}

// DeltaFor evaluates Δ_WK = λw·σ·√ξ + θw.
func (lp *LayerWeightProfile) DeltaFor(sigmaYL, xi float64) float64 {
	return lp.Lambda*sigmaYL*math.Sqrt(xi) + lp.Theta
}

// Profile holds the weight-noise model of every analyzable layer.
type Profile struct {
	NetName string
	Layers  []LayerWeightProfile
}

// NumLayers returns Ł.
func (p *Profile) NumLayers() int { return len(p.Layers) }

// weightTensor returns the weight tensor of a dot-product layer (nil
// for layers without one).
func weightTensor(l nn.Layer) *tensor.Tensor {
	switch t := l.(type) {
	case *nn.Conv2D:
		return t.W
	case *nn.DepthwiseConv2D:
		return t.W
	case *nn.Dense:
		return t.W
	default:
		return nil
	}
}

// Config reuses the activation profiler's tunables.
type Config = profile.Config

// Run profiles the weight-noise propagation of every analyzable layer.
// The network's weights are perturbed in place during measurement and
// restored before returning.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation. Unlike the activation profiler,
// the replay sweep stays SEQUENTIAL regardless of cfg.Workers: each
// measurement mutates the network's weight tensors in place, so
// concurrent replays against the shared network would race. The sweep
// still runs through one exec.Session, so the replay hot path reuses
// pooled activation buffers instead of allocating per call.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	if cfg.Images == 0 {
		cfg.Images = 30
	}
	if cfg.Points == 0 {
		cfg.Points = 12
	}
	if cfg.DeltaLoFrac == 0 {
		cfg.DeltaLoFrac = 1.0 / 512
	}
	if cfg.DeltaHiFrac == 0 {
		cfg.DeltaHiFrac = 1.0 / 16
	}
	if cfg.TargetSamples == 0 {
		cfg.TargetSamples = 8192
	}
	if ds.Len() < cfg.Images {
		return nil, fmt.Errorf("weights: dataset has %d images, config needs %d", ds.Len(), cfg.Images)
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	batch := ds.Batch(0, cfg.Images)
	// Clean pass and replays on separate Sessions: replays write into
	// their own session's buffers, never the cached activations.
	plan := exec.NewPlan(net)
	acts := exec.NewSessionPolicy(plan, cfg.Kernel).ForwardAll(batch)
	exact := acts[len(acts)-1]
	sess := exec.NewSessionPolicy(plan, cfg.Kernel)

	p := &Profile{NetName: net.Name}
	for _, nodeID := range net.AnalyzableNodes() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("weights: %w", err)
		}
		lp, err := profileLayer(net, sess, acts, exact, nodeID, cfg)
		if err != nil {
			return nil, fmt.Errorf("weights: layer %s: %w", net.Nodes[nodeID].Name, err)
		}
		p.Layers = append(p.Layers, lp)
	}
	return p, nil
}

func profileLayer(net *nn.Network, sess *exec.Session, acts []*tensor.Tensor, exact *tensor.Tensor, nodeID int, cfg Config) (LayerWeightProfile, error) {
	nd := net.Nodes[nodeID]
	w := weightTensor(nd.Layer)
	if w == nil {
		return LayerWeightProfile{}, fmt.Errorf("no weight tensor")
	}
	maxAbs := w.MaxAbs()
	lp := LayerWeightProfile{
		NodeID:  nodeID,
		Name:    nd.Name,
		MaxAbs:  maxAbs,
		IntBits: fixedpoint.IntBitsForRange(maxAbs),
		Params:  w.Len(),
		MACs:    net.MACCount(nodeID),
	}
	if maxAbs == 0 {
		return lp, fmt.Errorf("weights are all zero")
	}

	saved := append([]float64(nil), w.Data...)
	defer copy(w.Data, saved)

	// Weight noise is one realization shared by every image, so the
	// output-error sample size per replay is (images × logits); pool
	// several independent realizations per point like the activation
	// profiler does.
	repeats := (cfg.TargetSamples + exact.Len() - 1) / exact.Len()
	if repeats < 2 {
		repeats = 2
	}
	if repeats > 12 {
		repeats = 12
	}

	base := rng.New(cfg.Seed ^ uint64(nodeID)*0xb5297a4d ^ 0x77)
	noop := func(*tensor.Tensor) {}
	diff := make([]float64, 0, exact.Len()*repeats)
	lo, hi := cfg.DeltaLoFrac*maxAbs, cfg.DeltaHiFrac*maxAbs
	for pt := 0; pt < cfg.Points; pt++ {
		frac := 0.0
		if cfg.Points > 1 {
			frac = float64(pt) / float64(cfg.Points-1)
		}
		delta := lo * math.Pow(hi/lo, frac)
		diff = diff[:0]
		for rep := 0; rep < repeats; rep++ {
			r := base.Split()
			for i := range w.Data {
				w.Data[i] = saved[i] + r.Uniform(-delta, delta)
			}
			out := sess.Replay(acts, nodeID, noop)
			for i := range out.Data {
				diff = append(diff, out.Data[i]-exact.Data[i])
			}
		}
		copy(w.Data, saved)
		_, sd := stats.MeanStd(diff)
		lp.Deltas = append(lp.Deltas, delta)
		lp.Sigmas = append(lp.Sigmas, sd)
	}

	wts := make([]float64, len(lp.Deltas))
	for i, d := range lp.Deltas {
		wts[i] = 1 / (d * d)
	}
	fit, err := stats.FitLineWeighted(lp.Sigmas, lp.Deltas, wts)
	if err != nil {
		return lp, err
	}
	lp.Lambda, lp.Theta, lp.R2 = fit.Slope, fit.Intercept, fit.R2
	lp.MaxRelErr = stats.Max(fit.RelativeErrors(lp.Sigmas, lp.Deltas))
	if lp.Lambda <= 0 {
		return lp, fmt.Errorf("non-positive λw=%.4g (R²=%.3f)", lp.Lambda, lp.R2)
	}
	return lp, nil
}

// LayerWeightAlloc is one layer's weight format assignment.
type LayerWeightAlloc struct {
	NodeID int
	Name   string
	Xi     float64
	Delta  float64
	Format fixedpoint.Format
	Bits   int
	Params int
	MACs   int
}

// Allocation assigns a weight format to every analyzable layer.
type Allocation struct {
	NetName string
	SigmaYL float64
	Layers  []LayerWeightAlloc
}

// Bits returns the per-layer weight widths.
func (a *Allocation) Bits() []int {
	out := make([]int, len(a.Layers))
	for i := range a.Layers {
		out[i] = a.Layers[i].Bits
	}
	return out
}

// StorageBits is Σ params_K · bits_K — the weight memory footprint.
func (a *Allocation) StorageBits() int64 {
	var total int64
	for i := range a.Layers {
		total += int64(a.Layers[i].Params) * int64(a.Layers[i].Bits)
	}
	return total
}

// EffectiveStorageBits is the storage-weighted mean width.
func (a *Allocation) EffectiveStorageBits() float64 {
	var num, den float64
	for i := range a.Layers {
		num += float64(a.Layers[i].Params) * float64(a.Layers[i].Bits)
		den += float64(a.Layers[i].Params)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Apply quantizes the network's weights to the allocation's formats and
// returns a restore function.
func (a *Allocation) Apply(net *nn.Network) (restore func()) {
	var saved [][]float64
	var tensors []*tensor.Tensor
	for _, la := range a.Layers {
		w := weightTensor(net.Nodes[la.NodeID].Layer)
		if w == nil {
			continue
		}
		saved = append(saved, append([]float64(nil), w.Data...))
		tensors = append(tensors, w)
		la.Format.QuantizeSlice(w.Data, w.Data)
	}
	return func() {
		for i, w := range tensors {
			copy(w.Data, saved[i])
		}
	}
}

// JointConfig tunes the joint activation+weight allocation.
type JointConfig struct {
	// ActRho / WeightRho weight the two groups in the objective; nil
	// defaults to #Input for activations and #Params for weights
	// (bandwidth + storage). Lengths must equal Ł when set.
	ActRho, WeightRho []float64
	DeltaFloor        float64
}

// JointAllocate splits ONE output-error budget σ_YŁ across 2Ł noise
// sources — every layer's activations and every layer's weights — by
// building a 2Ł-dimensional Eq. 8 objective and solving it with the
// same Newton-KKT simplex solver. It returns the activation allocation
// and the weight allocation.
func JointAllocate(aprof *profile.Profile, wprof *Profile, sigmaYL float64, cfg JointConfig) (*core.Allocation, *Allocation, error) {
	L := aprof.NumLayers()
	if wprof.NumLayers() != L {
		return nil, nil, fmt.Errorf("weights: %d activation layers vs %d weight layers", L, wprof.NumLayers())
	}
	actRho := cfg.ActRho
	if actRho == nil {
		actRho = make([]float64, L)
		for k := range aprof.Layers {
			actRho[k] = float64(aprof.Layers[k].Inputs)
		}
	}
	weightRho := cfg.WeightRho
	if weightRho == nil {
		weightRho = make([]float64, L)
		for k := range wprof.Layers {
			weightRho[k] = float64(wprof.Layers[k].Params)
		}
	}
	if len(actRho) != L || len(weightRho) != L {
		return nil, nil, fmt.Errorf("weights: ρ lengths %d/%d for %d layers", len(actRho), len(weightRho), L)
	}

	// Assemble the 2Ł-dimensional problem as a synthetic profile: the
	// first Ł coordinates are activations, the last Ł are weights.
	joint := &profile.Profile{NetName: aprof.NetName}
	rho := make([]float64, 0, 2*L)
	for k := range aprof.Layers {
		joint.Layers = append(joint.Layers, profile.LayerProfile{
			Lambda: aprof.Layers[k].Lambda,
			Theta:  aprof.Layers[k].Theta,
		})
		rho = append(rho, actRho[k])
	}
	for k := range wprof.Layers {
		joint.Layers = append(joint.Layers, profile.LayerProfile{
			Lambda: wprof.Layers[k].Lambda,
			Theta:  wprof.Layers[k].Theta,
		})
		rho = append(rho, weightRho[k])
	}

	xi, err := core.OptimizeXi(joint, sigmaYL, core.Config{
		Objective: core.CustomRho, Rho: rho, DeltaFloor: cfg.DeltaFloor,
	})
	if err != nil {
		return nil, nil, err
	}

	actAlloc, err := core.FromXi(aprof, sigmaYL, xi[:L], "joint_act", cfg.DeltaFloor)
	if err != nil {
		return nil, nil, err
	}
	// Activation ξ from the joint solve must be written back (FromXi
	// recomputes Δ from the activation profile with the joint ξ shares,
	// which is exactly what we want).
	wAlloc := &Allocation{NetName: wprof.NetName, SigmaYL: sigmaYL}
	floor := cfg.DeltaFloor
	if floor <= 0 {
		floor = 1.0 / (1 << 20)
	}
	for k := range wprof.Layers {
		lp := &wprof.Layers[k]
		delta := lp.DeltaFor(sigmaYL, xi[L+k])
		if delta < floor {
			delta = floor
		}
		f := fixedpoint.Format{IntBits: lp.IntBits, FracBits: fixedpoint.FracBitsForDelta(delta)}
		wAlloc.Layers = append(wAlloc.Layers, LayerWeightAlloc{
			NodeID: lp.NodeID,
			Name:   lp.Name,
			Xi:     xi[L+k],
			Delta:  delta,
			Format: f,
			Bits:   f.Width(),
			Params: lp.Params,
			MACs:   lp.MACs,
		})
	}
	return actAlloc, wAlloc, nil
}

// Validate measures real top-1 accuracy with BOTH the activation
// formats and the weight formats applied. Quantization injectors are
// stateless, so the evaluation runs on GOMAXPROCS workers with a
// bit-identical result at any worker count.
func Validate(net *nn.Network, ds *dataset.Dataset, n int, act *core.Allocation, w *Allocation) float64 {
	restore := w.Apply(net)
	defer restore()
	acc, _ := search.AccuracyStateless(context.Background(), 0, net, ds, n, 32, act.InjectionPlan())
	return acc
}
