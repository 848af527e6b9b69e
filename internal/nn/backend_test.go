package nn

import (
	"fmt"
	"math"
	"testing"

	"mupod/internal/kernels"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

// TestConvBackendsAgree sweeps kernel/stride/pad/channel combinations
// across every registered kernel backend: naive and blocked must agree
// to 1e-9 (different accumulation orders), and parallel must be
// bit-identical to blocked (the ResultClass contract this package's
// caching relies on).
func TestConvBackendsAgree(t *testing.T) {
	r := rng.New(33)
	cases := []struct{ inC, outC, k, stride, pad, h, w int }{
		{1, 1, 1, 1, 0, 4, 4},
		{3, 8, 3, 1, 1, 8, 8},
		{2, 4, 3, 2, 1, 7, 7},
		{4, 2, 5, 1, 2, 6, 6},
		{2, 3, 2, 2, 0, 8, 6},
		{8, 8, 3, 1, 1, 5, 5},
	}
	for _, cse := range cases {
		c := NewConv2D(cse.inC, cse.outC, cse.k, cse.stride, cse.pad)
		c.InitHe(r, 1)
		for i := range c.B.Data {
			c.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
		x := randTensor(r, 2, cse.inC, cse.h, cse.w)
		outs := map[string]*tensor.Tensor{}
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: 3})
			out := tensor.New(c.OutShape([][]int{x.Shape})...)
			c.ForwardIntoOn(be, []*tensor.Tensor{x}, out, nil)
			outs[name] = out
		}
		for i := range outs["naive"].Data {
			if d := math.Abs(outs["naive"].Data[i] - outs["blocked"].Data[i]); d > 1e-9 {
				t.Fatalf("%+v: naive vs blocked element %d differs by %g", cse, i, d)
			}
			if outs["parallel"].Data[i] != outs["blocked"].Data[i] {
				t.Fatalf("%+v: parallel not bit-identical to blocked at element %d", cse, i)
			}
		}
	}
}

// TestForwardMatchesForwardIntoOnDefault pins the allocating Apply to
// ForwardIntoOn on the default backend into a dirty pooled buffer,
// bitwise: every output element must be overwritten.
func TestForwardMatchesForwardIntoOnDefault(t *testing.T) {
	r := rng.New(34)
	c := NewConv2D(2, 3, 3, 1, 1)
	c.InitHe(r, 1)
	x := randTensor(r, 1, 2, 6, 6)
	a := Apply(kernels.Default(), c, []*tensor.Tensor{x})
	b := tensor.New(c.OutShape([][]int{x.Shape})...)
	b.Fill(math.NaN())
	c.ForwardIntoOn(kernels.Default(), []*tensor.Tensor{x}, b, nil)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Apply and default-backend ForwardIntoOn disagree")
		}
	}
}

// TestPoolAndDenseBackendsBitIdentical: dense, depthwise and pooling
// layers use plain mul+add in every backend, so all three must agree
// bitwise — including fanned pooling at workers>1.
func TestPoolAndDenseBackendsBitIdentical(t *testing.T) {
	r := rng.New(35)
	x := randTensor(r, 2, 4, 8, 8)
	layers := []struct {
		name string
		l    Layer
		in   *tensor.Tensor
	}{
		{"dwconv", NewDepthwiseConv2D(4, 3, 1, 1), x},
		{"maxpool", NewMaxPool2D(2, 2), x},
		{"avgpool", NewAvgPool2D(2, 2), x},
		{"gap", GlobalAvgPool{}, x},
		{"fc", NewDense(16, 5), randTensor(r, 3, 16)},
	}
	if d := layers[0].l.(*DepthwiseConv2D); true {
		d.InitHe(r, 1)
		for i := range d.B.Data {
			d.B.Data[i] = r.Uniform(-0.5, 0.5)
		}
	}
	if fc := layers[4].l.(*Dense); true {
		fc.InitHe(r, 1)
	}
	for _, lc := range layers {
		var ref *tensor.Tensor
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name, IntraWorkers: 4})
			out := tensor.New(lc.l.OutShape([][]int{lc.in.Shape})...)
			lc.l.ForwardIntoOn(be, []*tensor.Tensor{lc.in}, out, nil)
			if ref == nil {
				ref = out
				continue
			}
			for i := range ref.Data {
				if out.Data[i] != ref.Data[i] {
					t.Fatalf("%s: backend %s not bit-identical at element %d", lc.name, name, i)
				}
			}
		}
	}
}

func BenchmarkConvBackends(b *testing.B) {
	r := rng.New(36)
	for _, cse := range []struct{ c, hw int }{{8, 16}, {32, 16}, {64, 8}} {
		c := NewConv2D(cse.c, cse.c, 3, 1, 1)
		c.InitHe(r, 1)
		x := randTensor(r, 1, cse.c, cse.hw, cse.hw)
		ins := []*tensor.Tensor{x}
		out := tensor.New(c.OutShape([][]int{x.Shape})...)
		for _, name := range kernels.Names() {
			be := kernels.MustNew(kernels.Policy{Impl: name})
			var scratch []float64
			b.Run(fmt.Sprintf("%s-c%d-hw%d", name, cse.c, cse.hw), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scratch = c.ForwardIntoOn(be, ins, out, scratch)
				}
			})
		}
	}
}
