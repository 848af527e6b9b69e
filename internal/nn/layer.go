// Package nn is a from-scratch CNN engine: the substrate the paper's
// precision-optimization pipeline runs on (the paper used Caffe). It
// provides the layer types found in the eight evaluated architectures
// (convolution, depthwise convolution, fully connected, ReLU, max/avg
// pooling, residual add, channel concat) arranged in a DAG Network,
// and the noise-injection hook type that internal/profile and
// internal/search build on. Graph execution — forward passes with
// per-node activation taps, injected passes, suffix replays — lives in
// internal/exec.
//
// Layers are stateless: ForwardIntoOn and Backward are pure functions
// of their arguments, which lets the profiler replay arbitrary
// sub-graphs from cached activations without worrying about hidden
// layer state.
package nn

import (
	"fmt"

	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// Layer is one computational node type. Implementations must be
// stateless: Backward must derive everything it needs from
// ins/out/gradOut.
type Layer interface {
	// Kind returns a short lowercase identifier ("conv", "relu", ...).
	Kind() string
	// OutShape computes the output shape from the input shapes.
	OutShape(in [][]int) []int
	// ForwardIntoOn computes the layer output for ins into the
	// caller-provided out, with any dense math on be, so internal/exec
	// can pool one output buffer per node across thousands of replays
	// and pick the kernel backend per session.
	//
	// Contract: out must have the layer's exact output element count
	// for the given inputs (shape metadata is trusted, not checked on
	// the hot path); every element of out is overwritten, so a dirty
	// buffer is fine. scratch is optional reusable working memory —
	// implementations that need temporaries (the conv path's im2col
	// columns) grow it as needed and return it so the caller can pass
	// it back next call. Implementations that need no temporaries
	// return scratch unchanged.
	ForwardIntoOn(be kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64
	// Backward returns the gradient with respect to each input, given
	// the inputs, the forward output and the gradient of the loss with
	// respect to that output. Parameterized layers must also accumulate
	// their parameter gradients.
	Backward(ins []*tensor.Tensor, out, gradOut *tensor.Tensor) []*tensor.Tensor
}

// Param is a named trainable parameter with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Parameterized is implemented by layers with trainable parameters.
type Parameterized interface {
	Params() []Param
}

// DotProduct is implemented by the layers the paper analyzes and
// assigns input bitwidths to: convolution, depthwise convolution and
// fully connected layers — "Convolution and fully connected layers use
// the same dot product operation" (Sec. III).
type DotProduct interface {
	// MACs returns the number of multiply-accumulate operations the
	// layer performs for ONE image with the given input shapes
	// (batch dimension excluded).
	MACs(in [][]int) int
}

// Apply computes one layer's forward pass on be into a freshly
// allocated output tensor. It serves callers outside a pooled
// exec.Session: fxnet's float nodes and the layer unit tests.
func Apply(be kernels.Backend, l Layer, ins []*tensor.Tensor) *tensor.Tensor {
	inShapes := make([][]int, len(ins))
	for i, t := range ins {
		inShapes[i] = t.Shape
	}
	out := tensor.New(l.OutShape(inShapes)...)
	l.ForwardIntoOn(be, ins, out, nil)
	return out
}

// growScratch returns a slice of at least n elements, reusing s's
// backing array when it is large enough.
func growScratch(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func shapeSize(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

func checkInputs(kind string, ins []*tensor.Tensor, want int) {
	if len(ins) != want {
		panic(fmt.Sprintf("nn: %s layer expects %d input(s), got %d", kind, want, len(ins)))
	}
}
