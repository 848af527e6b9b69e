// Package kernels is the compute-backend layer under every forward
// pass: the dense inner loops of conv (im2col + GEMM), depthwise conv,
// fully connected layers and pooling fan-out live behind the Backend
// interface, selected per execution session by a Policy value instead
// of a mutable package global.
//
// There is one kernel family, run two ways:
//
//   - "blocked" (Policy.IntraWorkers 0 or 1): cache-blocked,
//     register-tiled GEMM over packed 4-column panels with a 2×4 Go
//     micro-kernel (an 8×4 FMA3 assembly micro-kernel on amd64 CPUs
//     that have it), hoisted-bounds depthwise conv, and a
//     4-row-unrolled dense kernel.
//   - "parallel" (IntraWorkers n ≥ 2): the blocked kernels with
//     goroutine intra-op tiling — output columns/planes/rows of a
//     single layer are sharded across n workers.
//
// The package tests keep the original reference loops as a test-only
// naive oracle (naive_test.go), alongside internal/refcheck's
// float64 kernels.
//
// Reduction-order contract: every kernel computes each output element
// as bias + Σ terms in one fixed ascending order (ascending l for
// GEMM, ascending (kh,kw) for convolutions, ascending i for dense and
// dot). Work is only ever sharded across *disjoint output elements*,
// never across the reduction dimension, so "parallel" is bit-identical
// to "blocked" at any worker count — including the inline fallback it
// takes for small shapes. Every Policy therefore yields the same bits,
// and caches never need to key on it.
//
// The blocked/parallel GEMM accumulates with math.FMA. FMA is
// IEEE-defined ("computed with only one rounding"), so results are
// identical whether the CPU fuses in hardware or the runtime falls
// back to the software implementation — determinism is unaffected by
// build flags or host CPU. Speed is not: below GOAMD64=v3 every
// math.FMA site compiles to a hardware check plus a fallback call,
// whose register spills leave the Go micro-kernel no faster than the
// naive oracle. On amd64 CPUs with FMA3 and AVX, 8-row blocks of the
// GEMM therefore run an assembly micro-kernel (fma_amd64.s) that
// issues the same fused multiply-adds, one per output lane in
// ascending l, at every GOAMD64 level; the Go micro-kernels cover row
// tails, CPUs without FMA3 and other architectures.
package kernels

import "fmt"

// ConvGeom carries the spatial geometry of one convolution or pooling
// call: input H×W, square kernel K, stride, zero padding, and the
// output dims OH×OW derived from them.
type ConvGeom struct {
	H, W   int
	K      int
	Stride int
	Pad    int
	OH, OW int
}

// Backend is one compute implementation of the dense primitives. All
// implementations are stateless and safe for concurrent use by any
// number of sessions; scratch memory is drawn from internal pools.
type Backend interface {
	// Name returns the implementation label ("blocked" or "parallel").
	Name() string

	// GEMM computes c[i*n+j] = bias[i] + Σ_l a[i*k+l]·b[l*n+j] for
	// i<m, j<n, overwriting c. bias may be nil (treated as zero). The
	// per-element reduction runs in ascending l.
	GEMM(m, n, k int, a, b, bias, c []float64)

	// Im2col packs the receptive fields of one [inC, H, W] image x
	// into a [inC·K·K, OH·OW] column matrix (zero padding
	// materialized). Pure data movement.
	Im2col(g ConvGeom, inC int, x, cols []float64)

	// DWConv computes a depthwise convolution over x [batch, channels,
	// H, W] with weights w [channels, K, K] and per-channel bias into
	// out [batch, channels, OH, OW].
	DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64)

	// Dense computes y[r*out+o] = bias[o] + Σ_i w[o*in+i]·x[r*in+i]
	// for r<batch, o<out (bias may be nil).
	Dense(batch, in, out int, x, w, bias, y []float64)

	// Axpy computes y[i] += alpha·x[i] over len(x) elements.
	Axpy(alpha float64, x, y []float64)

	// Dot returns Σ x[i]·y[i] accumulated in ascending i.
	Dot(x, y []float64) float64

	// Fan runs f(0..n-1), each call writing a disjoint slice of the
	// output: inline on serial backends, sharded across the intra-op
	// worker budget on "parallel". Calls may run in any order and
	// concurrently; f must not depend on ordering.
	Fan(n int, f func(i int))
}

// Policy selects the compute backend by value. There is one backend
// family, the blocked kernels; the policy only says whether a layer's
// kernels shard their output across goroutines. The zero value runs
// them serially and is always valid, so configs that never mention
// kernels keep working unchanged.
type Policy struct {
	// IntraWorkers is the number of goroutines one layer's kernels may
	// shard across: 0 or 1 runs the serial blocked kernels, n ≥ 2 the
	// "parallel" sharding over n workers. Results are bit-identical at
	// every value.
	IntraWorkers int `json:"intra_workers,omitempty"`
}

// Validate reports whether the policy has a sane worker budget.
func (p Policy) Validate() error {
	if p.IntraWorkers < 0 {
		return fmt.Errorf("kernels: negative intra workers %d", p.IntraWorkers)
	}
	return nil
}

// Names returns the implementation labels of the dispatch counters
// (mupod_kernel_dispatch_total{impl=...}), sorted.
func Names() []string { return append([]string(nil), implNames[:]...) }

// New resolves a policy to a backend: the serial blocked kernels for
// IntraWorkers ≤ 1, the sharded ones otherwise.
func New(p Policy) (Backend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.IntraWorkers < 2 {
		return blockedBackend{}, nil
	}
	return parallelBackend{workers: p.IntraWorkers}, nil
}

// MustNew is New for policies already validated upstream; it panics on
// error.
func MustNew(p Policy) Backend {
	be, err := New(p)
	if err != nil {
		panic(err)
	}
	return be
}

// Default returns the backend for the zero Policy.
func Default() Backend { return MustNew(Policy{}) }
