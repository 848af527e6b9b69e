// Package groups pushes the paper's method BELOW layer granularity:
// each analyzable layer's input channels are split into G groups, every
// group becomes its own noise source with its own measured λ/θ and its
// own fixed-point format. Sec. I argues this is exactly where dynamic
// search dies ("because it is very time-consuming, this approach can
// only assign precision at a coarse granularity") and where theoretical
// bounds are "impractical at finer granularities" — while the
// statistical pipeline just grows its simplex from Ł to Σ_K G_K
// coordinates at linear profiling cost.
//
// The payoff is concrete: channel groups often have very different
// value ranges, so per-group integer bits alone can save storage even
// before the fraction bits are optimized.
package groups

import (
	"context"
	"fmt"
	"math"

	"mupod/internal/dataset"
	"mupod/internal/exec"
	"mupod/internal/fixedpoint"
	"mupod/internal/kernels"
	"mupod/internal/nn"
	"mupod/internal/optimize"
	"mupod/internal/profile"
	"mupod/internal/rng"
	"mupod/internal/search"
	"mupod/internal/stats"
	"mupod/internal/tensor"
)

// Config tunes group profiling.
type Config struct {
	// Groups is the target number of channel groups per layer (clamped
	// to the layer's channel count; default 2).
	Groups int
	// Profile carries the shared injection budgets.
	Profile profile.Config
}

func (c Config) withDefaults() Config {
	if c.Groups == 0 {
		c.Groups = 2
	}
	p := c.Profile
	if p.Images == 0 {
		p.Images = 24
	}
	if p.Points == 0 {
		p.Points = 10
	}
	if p.DeltaLoFrac == 0 {
		p.DeltaLoFrac = 1.0 / 512
	}
	if p.DeltaHiFrac == 0 {
		p.DeltaHiFrac = 1.0 / 16
	}
	if p.TargetSamples == 0 {
		p.TargetSamples = 8192
	}
	c.Profile = p
	return c
}

// GroupProfile is the fitted model of one channel group.
type GroupProfile struct {
	NodeID int
	Name   string // "<layer>#<group>"
	Group  int
	// LoChan/HiChan bound the channel range [LoChan, HiChan) of a 4-D
	// input; for 2-D (flattened FC) inputs they bound feature indices.
	LoChan, HiChan int

	Lambda, Theta float64
	R2            float64

	MaxAbs  float64
	IntBits int
	Inputs  int // elements of this group per image
}

// DeltaFor evaluates Eq. 7 for the group.
func (g *GroupProfile) DeltaFor(sigmaYL, xi float64) float64 {
	return g.Lambda*sigmaYL*math.Sqrt(xi) + g.Theta
}

// Profile is the per-network group-granular profiling result.
type Profile struct {
	NetName string
	Groups  []GroupProfile
}

// NumSources returns the total number of noise sources (Σ_K G_K).
func (p *Profile) NumSources() int { return len(p.Groups) }

// groupInjector perturbs only the channels [lo, hi) of a 4-D tensor
// (or features [lo, hi) of a 2-D tensor).
func groupInjector(r *rng.RNG, delta float64, lo, hi int) nn.Injector {
	return func(t *tensor.Tensor) {
		if delta <= 0 {
			return
		}
		switch len(t.Shape) {
		case 4:
			N, C, H, W := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
			plane := H * W
			for n := 0; n < N; n++ {
				for c := lo; c < hi && c < C; c++ {
					base := (n*C + c) * plane
					for i := 0; i < plane; i++ {
						if v := t.Data[base+i]; v != 0 {
							t.Data[base+i] = v + r.Uniform(-delta, delta)
						}
					}
				}
			}
		case 2:
			N, F := t.Shape[0], t.Shape[1]
			for n := 0; n < N; n++ {
				for f := lo; f < hi && f < F; f++ {
					if v := t.Data[n*F+f]; v != 0 {
						t.Data[n*F+f] = v + r.Uniform(-delta, delta)
					}
				}
			}
		default:
			panic(fmt.Sprintf("groups: unsupported input rank %d", len(t.Shape)))
		}
	}
}

// groupQuantizer rounds only the group's channels to the format.
func groupQuantizer(f fixedpoint.Format, lo, hi int) func(t *tensor.Tensor) {
	return func(t *tensor.Tensor) {
		switch len(t.Shape) {
		case 4:
			N, C, H, W := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
			plane := H * W
			for n := 0; n < N; n++ {
				for c := lo; c < hi && c < C; c++ {
					base := (n*C + c) * plane
					f.QuantizeSlice(t.Data[base:base+plane], t.Data[base:base+plane])
				}
			}
		case 2:
			N, F := t.Shape[0], t.Shape[1]
			for n := 0; n < N; n++ {
				row := t.Data[n*F : (n+1)*F]
				for i := lo; i < hi && i < F; i++ {
					row[i] = f.Quantize(row[i])
				}
			}
		}
	}
}

// groupMaxAbs measures max |x| over the group's channels.
func groupMaxAbs(t *tensor.Tensor, lo, hi int) float64 {
	max := 0.0
	switch len(t.Shape) {
	case 4:
		N, C, H, W := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
		plane := H * W
		for n := 0; n < N; n++ {
			for c := lo; c < hi && c < C; c++ {
				base := (n*C + c) * plane
				for i := 0; i < plane; i++ {
					if a := math.Abs(t.Data[base+i]); a > max {
						max = a
					}
				}
			}
		}
	case 2:
		N, F := t.Shape[0], t.Shape[1]
		for n := 0; n < N; n++ {
			for f := lo; f < hi && f < F; f++ {
				if a := math.Abs(t.Data[n*F+f]); a > max {
					max = a
				}
			}
		}
	}
	return max
}

// groupRepeats pools a few realizations per point; groups are small.
const groupRepeats = 4

// groupSweep is the precomputed measurement schedule of one group.
type groupSweep struct {
	gp     GroupProfile
	deltas []float64
	rngs   []*rng.RNG // one pre-split stream per (point, repeat), point-major
}

// Run profiles every channel group of every analyzable layer.
func Run(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	return RunContext(context.Background(), net, ds, cfg)
}

// RunContext is Run with cancellation. Like the activation profiler,
// the sweep is embarrassingly parallel across (group, point, repeat)
// replays and runs on cfg.Profile.Workers goroutines; noise streams
// are pre-split per replay in sequential consumption order and diffs
// are pooled in that same fixed order, so the profile is bit-identical
// at every worker count.
func RunContext(ctx context.Context, net *nn.Network, ds *dataset.Dataset, cfg Config) (*Profile, error) {
	cfg = cfg.withDefaults()
	pc := cfg.Profile
	if ds.Len() < pc.Images {
		return nil, fmt.Errorf("groups: dataset has %d images, config needs %d", ds.Len(), pc.Images)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	if err := pc.Kernel.Validate(); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	batch := ds.Batch(0, pc.Images)
	// The clean pass runs on its own Session so no replay session ever
	// writes into the cached activations.
	plan := exec.NewPlan(net)
	acts := exec.NewSessionPolicy(plan, pc.Kernel).ForwardAll(batch)
	exact := acts[len(acts)-1]

	// Sequential prep: group bounds, metadata, Δ grid, pre-split RNGs.
	var sweeps []groupSweep
	for _, nodeID := range net.AnalyzableNodes() {
		nd := net.Nodes[nodeID]
		input := acts[nd.Inputs[0]]
		channels := input.Shape[1]
		g := cfg.Groups
		if g > channels {
			g = channels
		}
		perImage := net.InputCount(nodeID)
		for gi := 0; gi < g; gi++ {
			lo := gi * channels / g
			hi := (gi + 1) * channels / g
			var sw groupSweep
			if err := prepGroup(&sw, net, acts, nodeID, gi, lo, hi, pc); err != nil {
				return nil, fmt.Errorf("groups: %s#%d: %w", nd.Name, gi, err)
			}
			sw.gp.Inputs = perImage * (hi - lo) / channels
			sweeps = append(sweeps, sw)
		}
	}

	// Fan the replays out; item i's diff vector lands in slot i of one
	// shared block, indexed deterministically.
	type workItem struct{ group, pt, rep int }
	var items []workItem
	for k := range sweeps {
		for pt := 0; pt < pc.Points; pt++ {
			for rep := 0; rep < groupRepeats; rep++ {
				items = append(items, workItem{k, pt, rep})
			}
		}
	}
	stride := exact.Len()
	diffs := make([]float64, len(items)*stride)
	ev := exec.NewEvaluator(pc.Workers)
	pol := pc.Kernel
	if pol.IntraWorkers == 0 {
		pol.IntraWorkers = kernels.IntraBudget(ev.Workers())
	}
	sessions := make([]*exec.Session, ev.Workers())
	err := ev.Map(ctx, len(items), func(ctx context.Context, worker, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		sess := sessions[worker]
		if sess == nil {
			sess = exec.NewSessionPolicy(plan, pol)
			sessions[worker] = sess
		}
		it := items[i]
		sw := &sweeps[it.group]
		r := sw.rngs[it.pt*groupRepeats+it.rep]
		out := sess.Replay(acts, sw.gp.NodeID, groupInjector(r, sw.deltas[it.pt], sw.gp.LoChan, sw.gp.HiChan))
		dst := diffs[i*stride : (i+1)*stride]
		for j := range dst {
			dst[j] = out.Data[j] - exact.Data[j]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}

	// Reduce in (group, point, repeat) order — the sequential pooling
	// order — then fit Eq. 5 per group.
	p := &Profile{NetName: net.Name}
	idx := 0
	for k := range sweeps {
		sw := &sweeps[k]
		var deltas, sigmas []float64
		pooled := make([]float64, 0, groupRepeats*stride)
		for pt := 0; pt < pc.Points; pt++ {
			pooled = pooled[:0]
			for rep := 0; rep < groupRepeats; rep++ {
				pooled = append(pooled, diffs[idx*stride:(idx+1)*stride]...)
				idx++
			}
			_, sd := stats.MeanStd(pooled)
			deltas = append(deltas, sw.deltas[pt])
			sigmas = append(sigmas, sd)
		}
		if err := fitGroup(&sw.gp, deltas, sigmas); err != nil {
			return nil, fmt.Errorf("groups: %s: %w", sw.gp.Name, err)
		}
		p.Groups = append(p.Groups, sw.gp)
	}
	return p, nil
}

func prepGroup(sw *groupSweep, net *nn.Network, acts []*tensor.Tensor, nodeID, gi, lo, hi int, pc profile.Config) error {
	nd := net.Nodes[nodeID]
	input := acts[nd.Inputs[0]]
	maxAbs := groupMaxAbs(input, lo, hi)
	sw.gp = GroupProfile{
		NodeID: nodeID,
		Name:   fmt.Sprintf("%s#%d", nd.Name, gi),
		Group:  gi,
		LoChan: lo, HiChan: hi,
		MaxAbs:  maxAbs,
		IntBits: fixedpoint.IntBitsForRange(maxAbs),
	}
	if maxAbs == 0 {
		return fmt.Errorf("group input is all zeros")
	}
	base := rng.New(pc.Seed ^ uint64(nodeID)*0x9e3779b97f4a7c15 ^ uint64(gi)<<48)
	loD, hiD := pc.DeltaLoFrac*maxAbs, pc.DeltaHiFrac*maxAbs
	for pt := 0; pt < pc.Points; pt++ {
		frac := 0.0
		if pc.Points > 1 {
			frac = float64(pt) / float64(pc.Points-1)
		}
		sw.deltas = append(sw.deltas, loD*math.Pow(hiD/loD, frac))
		for rep := 0; rep < groupRepeats; rep++ {
			sw.rngs = append(sw.rngs, base.Split())
		}
	}
	return nil
}

func fitGroup(gp *GroupProfile, deltas, sigmas []float64) error {
	w := make([]float64, len(deltas))
	for i, d := range deltas {
		w[i] = 1 / (d * d)
	}
	fit, err := stats.FitLineWeighted(sigmas, deltas, w)
	if err != nil {
		return err
	}
	gp.Lambda, gp.Theta, gp.R2 = fit.Slope, fit.Intercept, fit.R2
	if gp.Lambda <= 0 {
		return fmt.Errorf("non-positive λ=%.4g (R²=%.3f)", gp.Lambda, gp.R2)
	}
	return nil
}

// GroupAlloc is one group's format assignment.
type GroupAlloc struct {
	GroupProfile
	Xi     float64
	Delta  float64
	Format fixedpoint.Format
	Bits   int
}

// Allocation assigns a format per channel group.
type Allocation struct {
	NetName string
	SigmaYL float64
	Groups  []GroupAlloc
}

// EffectiveInputBits is the element-weighted mean width.
func (a *Allocation) EffectiveInputBits() float64 {
	var num, den float64
	for i := range a.Groups {
		num += float64(a.Groups[i].Inputs) * float64(a.Groups[i].Bits)
		den += float64(a.Groups[i].Inputs)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// TotalInputBits is Σ elements_g · bits_g per image.
func (a *Allocation) TotalInputBits() int64 {
	var total int64
	for i := range a.Groups {
		total += int64(a.Groups[i].Inputs) * int64(a.Groups[i].Bits)
	}
	return total
}

// InjectionPlan builds the per-node injector applying every group's
// real quantization.
func (a *Allocation) InjectionPlan() map[int]nn.Injector {
	byNode := map[int][]GroupAlloc{}
	for _, g := range a.Groups {
		byNode[g.NodeID] = append(byNode[g.NodeID], g)
	}
	plan := make(map[int]nn.Injector, len(byNode))
	for node, gs := range byNode {
		gs := gs
		plan[node] = func(t *tensor.Tensor) {
			for _, g := range gs {
				groupQuantizer(g.Format, g.LoChan, g.HiChan)(t)
			}
		}
	}
	return plan
}

// Allocate solves Eq. 8 over all Σ_K G_K group sources (ρ = element
// count per group, i.e. the bandwidth objective at group granularity).
func Allocate(prof *Profile, sigmaYL float64, deltaFloor float64) (*Allocation, error) {
	n := prof.NumSources()
	if n == 0 {
		return nil, fmt.Errorf("groups: empty profile")
	}
	// Reuse the layer-level objective machinery through a synthetic
	// layer profile per group.
	synth := &profile.Profile{NetName: prof.NetName}
	rho := make([]float64, n)
	for i := range prof.Groups {
		synth.Layers = append(synth.Layers, profile.LayerProfile{
			Lambda: prof.Groups[i].Lambda,
			Theta:  prof.Groups[i].Theta,
		})
		rho[i] = float64(prof.Groups[i].Inputs)
	}
	obj, err := optimize.NewBitObjective(synth, sigmaYL, rho, deltaFloor)
	if err != nil {
		return nil, err
	}
	xi, _, err := optimize.SolveNewtonKKT(obj, optimize.Options{})
	if err != nil {
		return nil, err
	}
	floor := deltaFloor
	if floor <= 0 {
		floor = 1.0 / (1 << 20)
	}
	a := &Allocation{NetName: prof.NetName, SigmaYL: sigmaYL}
	for i := range prof.Groups {
		g := &prof.Groups[i]
		delta := g.DeltaFor(sigmaYL, xi[i])
		if delta < floor {
			delta = floor
		}
		f := fixedpoint.Format{IntBits: g.IntBits, FracBits: fixedpoint.FracBitsForDelta(delta)}
		a.Groups = append(a.Groups, GroupAlloc{
			GroupProfile: *g,
			Xi:           xi[i],
			Delta:        delta,
			Format:       f,
			Bits:         f.Width(),
		})
	}
	return a, nil
}

// Validate measures real accuracy with the group formats applied.
// Group quantizers are stateless, so the evaluation runs on GOMAXPROCS
// workers with a bit-identical result at any worker count.
func Validate(net *nn.Network, ds *dataset.Dataset, n int, a *Allocation) float64 {
	acc, _ := search.AccuracyStateless(context.Background(), 0, net, ds, n, 32, a.InjectionPlan())
	return acc
}
