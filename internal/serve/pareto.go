package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"mupod/internal/kernels"
	"mupod/internal/pareto"
	"mupod/internal/profile"
	"mupod/internal/search"
)

// ParetoSpec asks a job for a Pareto front instead of a single-objective
// allocation: POST /pareto (or POST /v1/jobs with a "pareto" object)
// runs the α-sweep — and, with NSGA2 set, the warm-started genetic
// search on top — after the σ search, and returns the non-dominated
// (input-bits, MAC-energy) frontier as the job result.
type ParetoSpec struct {
	// Alphas lists custom sweep blend weights in [0,1] (default the
	// 0..1 step-0.1 grid).
	Alphas []float64 `json:"alphas,omitempty"`
	// NSGA2 enables the genetic search on top of the sweep warm start.
	NSGA2 bool `json:"nsga2,omitempty"`
	// Generations and PopSize tune the NSGA-II run (defaults 20 / 32).
	Generations int `json:"generations,omitempty"`
	PopSize     int `json:"pop_size,omitempty"`
	// Seed seeds the deterministic search RNG.
	Seed uint64 `json:"seed,omitempty"`
	// WeightBits is the uniform weight width of the energy model
	// (default 8).
	WeightBits int `json:"weight_bits,omitempty"`
}

// Validate checks the spec's static constraints.
func (s *ParetoSpec) Validate() error {
	for _, a := range s.Alphas {
		if a < 0 || a > 1 {
			return fmt.Errorf("pareto alpha %g outside [0,1]", a)
		}
	}
	if s.Generations < 0 || s.PopSize < 0 || s.WeightBits < 0 {
		return fmt.Errorf("pareto generations/pop_size/weight_bits must be non-negative")
	}
	return nil
}

// ParetoPoint is one operating point of a served front.
type ParetoPoint struct {
	// Alpha is the sweep blend weight that produced the point, or -1
	// for points discovered by the genetic search.
	Alpha        float64 `json:"alpha"`
	InputBits    int64   `json:"input_bits"`
	MACEnergyPJ  float64 `json:"mac_energy_pj"`
	EffInputBits float64 `json:"effective_input_bits"`
	EffMACBits   float64 `json:"effective_mac_bits"`
	Bits         []int   `json:"bits"`
}

// ParetoResult is the front payload attached to a finished pareto job.
type ParetoResult struct {
	// Front is the non-dominated frontier, ascending input bits.
	Front []ParetoPoint `json:"front"`
	// SweepFront is the non-dominated filter of the α-sweep alone
	// (equal to Front for sweep-only jobs).
	SweepFront []ParetoPoint `json:"sweep_front"`
	// RefPoint is the common hypervolume reference for both fronts.
	RefPoint [2]float64 `json:"ref_point"`
	// Hypervolume and SweepHypervolume are measured at RefPoint;
	// Hypervolume >= SweepHypervolume always (the genetic archive
	// contains every sweep point).
	Hypervolume      float64 `json:"hypervolume"`
	SweepHypervolume float64 `json:"sweep_hypervolume"`
	// Evaluations counts candidate allocations evaluated.
	Evaluations int `json:"evaluations"`
	// Generations is the completed NSGA-II generation count (0 for
	// sweep-only jobs).
	Generations int `json:"generations"`
	// FrontCacheHit reports whether the front came from the
	// content-addressed front cache.
	FrontCacheHit bool `json:"front_cache_hit"`
}

func toParetoPoints(pts []pareto.Point) []ParetoPoint {
	out := make([]ParetoPoint, len(pts))
	for i, p := range pts {
		out[i] = ParetoPoint{
			Alpha:        p.Alpha,
			InputBits:    p.InputBits,
			MACEnergyPJ:  p.MACEnergy,
			EffInputBits: p.EffInputBits,
			EffMACBits:   p.EffMACBits,
		}
		if p.Allocation != nil {
			out[i].Bits = p.Allocation.Bits()
		}
	}
	return out
}

// FrontKey content-addresses a Pareto front: the profile key already
// pins the network, weights, profiling inputs and profile config; the
// search options pin σ_YŁ (the search is deterministic); the spec pins
// the front parameters. Worker counts and the kernel policy are
// excluded — results are bit-identical at any parallelism, so they must
// not split the cache.
func FrontKey(profileKey string, sopts search.Options, spec ParetoSpec, deltaFloor float64) string {
	sopts.Workers = 0
	sopts.Kernel = kernels.Policy{}
	h := sha256.New()
	io.WriteString(h, "pareto-front-v1\n")
	io.WriteString(h, profileKey)
	fmt.Fprintf(h, "\n%#v\n%#v\n%g", sopts, spec, deltaFloor)
	return hex.EncodeToString(h.Sum(nil))
}

// frontEntry is one (possibly still computing) cached front, with the
// same single-flight semantics as the profile cache: ready closes when
// res/err are final, failed entries are removed before ready closes so
// a waiter retries as the new leader.
type frontEntry struct {
	ready chan struct{}
	res   *ParetoResult
	err   error
	elem  *list.Element
}

// frontCache is the content-addressed LRU of computed Pareto fronts.
// Fronts are small (a few dozen points), so it is bounded by count
// only.
type frontCache struct {
	mu      sync.Mutex
	entries map[string]*frontEntry
	lru     *list.List // of string keys, front = most recent
	cap     int
}

func newFrontCache(capacity int) *frontCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &frontCache{
		entries: make(map[string]*frontEntry),
		lru:     list.New(),
		cap:     capacity,
	}
}

// Len returns the number of completed cached fronts.
func (c *frontCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// getOrCompute returns the cached front for key or runs compute to fill
// it, sharing one computation across concurrent submissions.
func (c *frontCache) getOrCompute(ctx context.Context, key string, compute func(context.Context) (*ParetoResult, error)) (res *ParetoResult, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err != nil {
				continue // leader failed; retry as (or behind) a new leader
			}
			return e.res, true, nil
		}
		e := &frontEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		e.res, e.err = compute(ctx)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			e.elem = c.lru.PushFront(key)
			for c.lru.Len() > c.cap {
				back := c.lru.Back()
				k := back.Value.(string)
				c.lru.Remove(back)
				if old := c.entries[k]; old != nil {
					old.elem = nil
				}
				delete(c.entries, k)
			}
		}
		c.mu.Unlock()
		close(e.ready)
		return e.res, false, e.err
	}
}

// computePareto runs the front computation for one job: the α-sweep
// always, the NSGA-II search on top when the spec asks for it. The
// result is independent of workers (the engine's determinism contract),
// which is what makes the front cache sound.
func computePareto(ctx context.Context, prof *profile.Profile, sigmaYL float64, spec ParetoSpec, deltaFloor float64, workers int) (*ParetoResult, error) {
	if spec.NSGA2 {
		res, err := pareto.RunNSGA2(ctx, prof, sigmaYL, pareto.NSGA2Config{
			Generations: spec.Generations,
			PopSize:     spec.PopSize,
			Seed:        spec.Seed,
			Workers:     workers,
			Alphas:      spec.Alphas,
			WeightBits:  spec.WeightBits,
			DeltaFloor:  deltaFloor,
		})
		if err != nil {
			return nil, err
		}
		return &ParetoResult{
			Front:            toParetoPoints(res.Front),
			SweepFront:       toParetoPoints(pareto.NonDominated(res.Sweep)),
			RefPoint:         res.RefPoint,
			Hypervolume:      res.Hypervolume,
			SweepHypervolume: res.SweepHypervolume,
			Evaluations:      res.Evals,
			Generations:      res.Generations,
		}, nil
	}
	pts, err := pareto.SweepContext(ctx, prof, sigmaYL, pareto.Config{
		Alphas: spec.Alphas, WeightBits: spec.WeightBits, DeltaFloor: deltaFloor,
	})
	if err != nil {
		return nil, err
	}
	front := pareto.NonDominated(pts)
	ref := pareto.RefPoint(pts)
	hv := pareto.Hypervolume(pts, ref)
	fp := toParetoPoints(front)
	return &ParetoResult{
		Front:            fp,
		SweepFront:       fp,
		RefPoint:         ref,
		Hypervolume:      hv,
		SweepHypervolume: hv,
		Evaluations:      len(pts),
	}, nil
}
