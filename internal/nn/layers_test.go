package nn

import (
	"math"
	"testing"

	"mupod/internal/kernels"
	"mupod/internal/rng"
	"mupod/internal/tensor"
)

func TestConvForwardHandComputed(t *testing.T) {
	// 1 input channel 3×3, one 2×2 filter, stride 1, no pad.
	c := NewConv2D(1, 1, 2, 1, 0)
	copy(c.W.Data, []float64{1, 2, 3, 4})
	c.B.Data[0] = 0.5
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out := Apply(kernels.Default(), c, []*tensor.Tensor{x})
	// window(0,0): 1·1+2·2+3·4+4·5 = 37; +bias = 37.5
	want := []float64{37.5, 47.5, 67.5, 77.5}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("conv out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	if out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("conv out shape %v", out.Shape)
	}
}

func TestConvPaddingAndStride(t *testing.T) {
	c := NewConv2D(1, 1, 3, 2, 1)
	c.W.Data[4] = 1 // identity center tap
	x := tensor.New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := Apply(kernels.Default(), c, []*tensor.Tensor{x})
	if out.Shape[2] != 2 || out.Shape[3] != 2 {
		t.Fatalf("shape %v", out.Shape)
	}
	// Center taps at (0,0),(0,2),(2,0),(2,2) of the input.
	want := []float64{0, 2, 8, 10}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConvMultiChannelSum(t *testing.T) {
	c := NewConv2D(2, 1, 1, 1, 0)
	c.W.Data[0], c.W.Data[1] = 2, 3
	x := tensor.FromSlice([]float64{1, 4}, 1, 2, 1, 1)
	out := Apply(kernels.Default(), c, []*tensor.Tensor{x})
	if out.Data[0] != 2*1+3*4 {
		t.Fatalf("multi-channel conv = %v", out.Data[0])
	}
}

func TestConvMACs(t *testing.T) {
	c := NewConv2D(3, 16, 3, 1, 1)
	// AlexNet-style count: OH·OW·OutC·InC·K² = 16·16·16·3·9.
	if got := c.MACs([][]int{{1, 3, 16, 16}}); got != 16*16*16*3*9 {
		t.Fatalf("MACs = %d", got)
	}
}

func TestConvPanics(t *testing.T) {
	mustPanic(t, func() { NewConv2D(0, 1, 3, 1, 1) })
	mustPanic(t, func() {
		c := NewConv2D(2, 1, 3, 1, 1)
		Apply(kernels.Default(), c, []*tensor.Tensor{tensor.New(1, 3, 4, 4)}) // wrong channels
	})
	mustPanic(t, func() {
		c := NewConv2D(1, 1, 5, 1, 0)
		c.OutShape([][]int{{1, 1, 3, 3}}) // collapses
	})
}

func TestDepthwiseForward(t *testing.T) {
	d := NewDepthwiseConv2D(2, 1, 1, 0) // 1×1 depthwise = per-channel scale
	d.W.Data[0], d.W.Data[1] = 2, 5
	d.B.Data[1] = 1
	x := tensor.FromSlice([]float64{3, 7}, 1, 2, 1, 1)
	out := Apply(kernels.Default(), d, []*tensor.Tensor{x})
	if out.Data[0] != 6 || out.Data[1] != 36 {
		t.Fatalf("dwconv = %v", out.Data)
	}
}

func TestDepthwiseMACs(t *testing.T) {
	d := NewDepthwiseConv2D(8, 3, 1, 1)
	if got := d.MACs([][]int{{1, 8, 4, 4}}); got != 4*4*8*9 {
		t.Fatalf("MACs = %d", got)
	}
}

func TestDenseForward(t *testing.T) {
	d := NewDense(3, 2)
	copy(d.W.Data, []float64{1, 2, 3, 4, 5, 6})
	d.B.Data[0], d.B.Data[1] = 0.5, -0.5
	x := tensor.FromSlice([]float64{1, 1, 1}, 1, 3)
	out := Apply(kernels.Default(), d, []*tensor.Tensor{x})
	if out.Data[0] != 6.5 || out.Data[1] != 14.5 {
		t.Fatalf("dense = %v", out.Data)
	}
}

func TestDenseAcceptsConvShape(t *testing.T) {
	d := NewDense(8, 2)
	x := tensor.New(3, 2, 2, 2) // 8 features per sample
	out := Apply(kernels.Default(), d, []*tensor.Tensor{x})
	if out.Shape[0] != 3 || out.Shape[1] != 2 {
		t.Fatalf("shape %v", out.Shape)
	}
}

func TestDensePanicsOnWrongFeatures(t *testing.T) {
	mustPanic(t, func() { NewDense(4, 2).OutShape([][]int{{1, 5}}) })
}

func TestReLU(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0, 2.5}, 3)
	out := Apply(kernels.Default(), ReLU{}, []*tensor.Tensor{x})
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2.5 {
		t.Fatalf("relu = %v", out.Data)
	}
}

func TestMaxPool(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 0,
	}, 1, 1, 4, 4)
	out := Apply(kernels.Default(), p, []*tensor.Tensor{x})
	want := []float64{4, 8, 9, 4}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestAvgPool(t *testing.T) {
	p := NewAvgPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
	}, 1, 1, 2, 4)
	out := Apply(kernels.Default(), p, []*tensor.Tensor{x})
	if out.Data[0] != 2.5 || out.Data[1] != 6.5 {
		t.Fatalf("avgpool = %v", out.Data)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := Apply(kernels.Default(), GlobalAvgPool{}, []*tensor.Tensor{x})
	if out.Data[0] != 2.5 || out.Data[1] != 25 {
		t.Fatalf("gap = %v", out.Data)
	}
	if out.Shape[0] != 1 || out.Shape[1] != 2 {
		t.Fatalf("gap shape %v", out.Shape)
	}
}

func TestAdd(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2}, 1, 2)
	b := tensor.FromSlice([]float64{10, 20}, 1, 2)
	out := Apply(kernels.Default(), Add{}, []*tensor.Tensor{a, b})
	if out.Data[0] != 11 || out.Data[1] != 22 {
		t.Fatalf("add = %v", out.Data)
	}
	// Inputs untouched.
	if a.Data[0] != 1 {
		t.Fatal("Add mutated its input")
	}
	mustPanic(t, func() { (Add{}).OutShape([][]int{{1, 2}, {1, 3}}) })
}

func TestConcat(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	b := tensor.FromSlice([]float64{5, 6, 7, 8, 9, 10, 11, 12}, 1, 2, 2, 2)
	out := Apply(kernels.Default(), Concat{}, []*tensor.Tensor{a, b})
	if out.Shape[1] != 3 {
		t.Fatalf("concat shape %v", out.Shape)
	}
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("concat[%d] = %v", i, out.Data[i])
		}
	}
	mustPanic(t, func() { (Concat{}).OutShape([][]int{{1, 1, 2, 2}}) })
	mustPanic(t, func() {
		(Concat{}).OutShape([][]int{{1, 1, 2, 2}, {1, 1, 3, 3}})
	})
}

func TestConcatBatch(t *testing.T) {
	// Batch of 2: per-sample channel interleaving must be correct.
	a := tensor.FromSlice([]float64{1, 2}, 2, 1, 1, 1)
	b := tensor.FromSlice([]float64{10, 20}, 2, 1, 1, 1)
	out := Apply(kernels.Default(), Concat{}, []*tensor.Tensor{a, b})
	want := []float64{1, 10, 2, 20}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("batched concat = %v, want %v", out.Data, want)
		}
	}
}

func TestFlatten(t *testing.T) {
	x := tensor.New(2, 3, 4, 5)
	out := Apply(kernels.Default(), Flatten{}, []*tensor.Tensor{x})
	if out.Shape[0] != 2 || out.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", out.Shape)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	p := Softmax(logits)
	for n := 0; n < 2; n++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			v := p.Data[n*3+c]
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("bad prob %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", n, sum)
		}
	}
	if p.Data[2] <= p.Data[1] {
		t.Fatal("softmax not monotone")
	}
}

func TestArgmax(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 5, 1, 9, 2, 3}, 2, 3)
	got := Argmax(logits)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("argmax = %v", got)
	}
}

func TestInitHeStatistics(t *testing.T) {
	c := NewConv2D(8, 8, 3, 1, 1)
	c.InitHe(rng.New(1), 1)
	var sum, sum2 float64
	for _, w := range c.W.Data {
		sum += w
		sum2 += w * w
	}
	n := float64(len(c.W.Data))
	sd := math.Sqrt(sum2/n - (sum/n)*(sum/n))
	want := math.Sqrt(2.0 / (8 * 9))
	if math.Abs(sd-want) > want*0.2 {
		t.Fatalf("He init sd = %v, want ≈ %v", sd, want)
	}
	// Zero gain ⇒ zero weights (residual trick).
	c.InitHe(rng.New(1), 0)
	if c.W.MaxAbs() != 0 {
		t.Fatal("gain-0 init not zero")
	}
}

func TestKinds(t *testing.T) {
	cases := map[string]Layer{
		"conv":    NewConv2D(1, 1, 1, 1, 0),
		"dwconv":  NewDepthwiseConv2D(1, 1, 1, 0),
		"fc":      NewDense(1, 1),
		"relu":    ReLU{},
		"maxpool": NewMaxPool2D(2, 2),
		"avgpool": NewAvgPool2D(2, 2),
		"gap":     GlobalAvgPool{},
		"add":     Add{},
		"concat":  Concat{},
		"flatten": Flatten{},
	}
	for want, l := range cases {
		if l.Kind() != want {
			t.Errorf("Kind = %q, want %q", l.Kind(), want)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
