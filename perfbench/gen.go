package main

import (
	"math/rand/v2"
	"time"
)

// newRand returns the generator all of a run's inputs are drawn from;
// the same workload seed gives the same inputs.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// jobSeeds returns n job seeds for a pipeline run. The first is the
// warm-up seed; it is re-run as the last timed job.
func jobSeeds(seed uint64, n int) []uint64 {
	r := newRand(seed, 1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 + r.Uint64N(1<<20)
	}
	return out
}

// jobKind is what a serve-mix request is planned to exercise.
type jobKind int

const (
	kindHit    jobKind = iota // repeat of an earlier request: profile-cache hit
	kindMiss                  // a new request: profile-cache fill
	kindPareto                // NSGA-II front on an earlier request's profile
)

func (k jobKind) String() string {
	return [...]string{"hit", "miss", "pareto"}[k]
}

// Serve-mix plan constants. Every block of blockLen arrivals opens with
// one miss and holds one Pareto job half a block later, so the planned
// shares are exact for any seed and stay far from one half, and the two
// heavy kinds rarely run at the same time (their overlap made the
// latency tail and the peak RSS jump from run to run).
const (
	blockLen     = 8
	serveRate    = 2.0 // arrivals per second
	warmRequests = 12  // distinct requests filled before the window
	minRepeatGap = 4   // a repeat refers to a request introduced ≥ this many arrivals earlier
)

// plannedJob is one arrival of the serve-mix open loop.
type plannedJob struct {
	At     time.Duration // offset of the scheduled arrival from the window start
	Tenant string
	Kind   jobKind
	Req    int // index into servePlan.ReqSeeds
}

// servePlan is the generated serve-mix input: the distinct requests
// (by profile/search seed) and the arrival sequence. Requests
// 0..warmRequests-1 are submitted before the window; the last arrival
// repeats request 0.
type servePlan struct {
	ReqSeeds []uint64
	Jobs     []plannedJob
}

// planServe draws the arrivals of a window of the given length: the
// count is the rate times the window, and the gaps are uniform in
// [0.5, 1.5) of the mean, scaled so the arrivals span the window.
// Seeded, open loop, and less bursty than Poisson.
func planServe(seed uint64, window time.Duration) servePlan {
	r := newRand(seed, 2)
	var p servePlan
	var introduced []int // arrival index each request first appeared at
	for len(p.ReqSeeds) < warmRequests {
		p.ReqSeeds = append(p.ReqSeeds, 1+r.Uint64N(1<<20))
		introduced = append(introduced, -minRepeatGap)
	}
	n := int(serveRate * window.Seconds())
	gaps := make([]float64, n)
	sum := 0.0
	for i := range gaps {
		gaps[i] = 0.5 + r.Float64()
		sum += gaps[i]
	}
	at := 0.0
	for i := 0; i < n; i++ {
		j := plannedJob{At: time.Duration(at / sum * float64(window)), Tenant: []string{"t0", "t1"}[r.IntN(2)]}
		at += gaps[i]
		switch i % blockLen {
		case 0:
			j.Kind = kindMiss
			j.Req = len(p.ReqSeeds)
			p.ReqSeeds = append(p.ReqSeeds, 1+r.Uint64N(1<<20))
			introduced = append(introduced, i)
		default:
			j.Kind = kindHit
			if i%blockLen == blockLen/2 {
				j.Kind = kindPareto
			}
			// Repeat a request old enough that its miss has finished.
			var eligible []int
			for req, first := range introduced {
				if i-first >= minRepeatGap {
					eligible = append(eligible, req)
				}
			}
			j.Req = eligible[r.IntN(len(eligible))]
		}
		p.Jobs = append(p.Jobs, j)
	}
	// The last arrival repeats the first warm-up request, whose
	// allocation it must reproduce.
	p.Jobs = append(p.Jobs, plannedJob{At: window, Tenant: "t0", Kind: kindHit, Req: 0})
	return p
}

// shares returns the planned miss and Pareto shares of the arrivals.
func (p servePlan) shares() (miss, par float64) {
	var nm, np int
	for _, j := range p.Jobs {
		switch j.Kind {
		case kindMiss:
			nm++
		case kindPareto:
			np++
		}
	}
	n := float64(len(p.Jobs))
	return float64(nm) / n, float64(np) / n
}
