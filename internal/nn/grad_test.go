package nn

import (
	"math"
	"testing"

	"mupod/internal/kernels"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// numericalCheck verifies a layer's Backward against central finite
// differences of a scalar loss L = Σ out·g for a fixed random g, both
// for the input gradient and (when parameterized) every weight
// gradient. This is the canonical correctness test for backprop.
func numericalCheck(t *testing.T, l Layer, ins []*tensor.Tensor, seed uint64) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-5
	r := rng.New(seed)

	out := Apply(kernels.Default(), l, ins)
	g := tensor.New(out.Shape...)
	for i := range g.Data {
		g.Data[i] = r.Uniform(-1, 1)
	}
	loss := func() float64 {
		o := Apply(kernels.Default(), l, ins)
		s := 0.0
		for i, v := range o.Data {
			s += v * g.Data[i]
		}
		return s
	}

	// Clear parameter grads, run Backward once.
	if p, ok := l.(Parameterized); ok {
		for _, pr := range p.Params() {
			pr.Grad.Zero()
		}
	}
	gIns := l.Backward(ins, out, g)

	// Input gradients.
	for ii, in := range ins {
		for j := 0; j < in.Len(); j++ {
			orig := in.Data[j]
			in.Data[j] = orig + eps
			lp := loss()
			in.Data[j] = orig - eps
			lm := loss()
			in.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			got := gIns[ii].Data[j]
			if !gradClose(got, num, tol) {
				t.Fatalf("%s: dL/dx[%d][%d] = %v, numerical %v", l.Kind(), ii, j, got, num)
			}
		}
	}

	// Parameter gradients.
	if p, ok := l.(Parameterized); ok {
		for _, pr := range p.Params() {
			for j := 0; j < pr.Value.Len(); j++ {
				orig := pr.Value.Data[j]
				pr.Value.Data[j] = orig + eps
				lp := loss()
				pr.Value.Data[j] = orig - eps
				lm := loss()
				pr.Value.Data[j] = orig
				num := (lp - lm) / (2 * eps)
				got := pr.Grad.Data[j]
				if !gradClose(got, num, tol) {
					t.Fatalf("%s: dL/d%s[%d] = %v, numerical %v", l.Kind(), pr.Name, j, got, num)
				}
			}
		}
	}
}

func gradClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func randTensor(r *rng.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = r.Uniform(-1.5, 1.5)
	}
	return x
}

func TestConvGradient(t *testing.T) {
	r := rng.New(10)
	c := NewConv2D(2, 3, 3, 1, 1)
	c.InitHe(r, 1)
	numericalCheck(t, c, []*tensor.Tensor{randTensor(r, 2, 2, 4, 4)}, 1)
}

func TestConvStridedGradient(t *testing.T) {
	r := rng.New(11)
	c := NewConv2D(2, 2, 3, 2, 1)
	c.InitHe(r, 1)
	numericalCheck(t, c, []*tensor.Tensor{randTensor(r, 1, 2, 5, 5)}, 2)
}

func TestDepthwiseGradient(t *testing.T) {
	r := rng.New(12)
	d := NewDepthwiseConv2D(3, 3, 1, 1)
	d.InitHe(r, 1)
	numericalCheck(t, d, []*tensor.Tensor{randTensor(r, 2, 3, 4, 4)}, 3)
}

func TestDepthwiseStridedGradient(t *testing.T) {
	r := rng.New(13)
	d := NewDepthwiseConv2D(2, 3, 2, 1)
	d.InitHe(r, 1)
	numericalCheck(t, d, []*tensor.Tensor{randTensor(r, 1, 2, 5, 5)}, 4)
}

func TestDenseGradient(t *testing.T) {
	r := rng.New(14)
	d := NewDense(6, 4)
	d.InitHe(r, 1)
	numericalCheck(t, d, []*tensor.Tensor{randTensor(r, 3, 6)}, 5)
}

func TestReLUGradient(t *testing.T) {
	r := rng.New(15)
	x := randTensor(r, 2, 3, 2, 2)
	// Keep values away from the kink where finite differences lie.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-3 {
			x.Data[i] = 0.1
		}
	}
	numericalCheck(t, ReLU{}, []*tensor.Tensor{x}, 6)
}

func TestMaxPoolGradient(t *testing.T) {
	r := rng.New(16)
	x := randTensor(r, 2, 2, 4, 4)
	numericalCheck(t, NewMaxPool2D(2, 2), []*tensor.Tensor{x}, 7)
}

func TestAvgPoolGradient(t *testing.T) {
	r := rng.New(17)
	numericalCheck(t, NewAvgPool2D(2, 2), []*tensor.Tensor{randTensor(r, 2, 2, 4, 4)}, 8)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	r := rng.New(18)
	numericalCheck(t, GlobalAvgPool{}, []*tensor.Tensor{randTensor(r, 2, 3, 3, 3)}, 9)
}

func TestAddGradient(t *testing.T) {
	r := rng.New(19)
	numericalCheck(t, Add{}, []*tensor.Tensor{randTensor(r, 2, 3), randTensor(r, 2, 3)}, 10)
}

func TestConcatGradient(t *testing.T) {
	r := rng.New(20)
	numericalCheck(t, Concat{}, []*tensor.Tensor{
		randTensor(r, 2, 2, 3, 3),
		randTensor(r, 2, 3, 3, 3),
	}, 11)
}

func TestFlattenGradient(t *testing.T) {
	r := rng.New(21)
	numericalCheck(t, Flatten{}, []*tensor.Tensor{randTensor(r, 2, 2, 2, 2)}, 12)
}
