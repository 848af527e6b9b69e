// Forward passes of the layers with no kernel work (flatten, ReLU,
// add, concat), plus the pooling plane loops backend.go fans out.

package nn

import (
	"math"

	"mupod/internal/kernels"
	"mupod/internal/tensor"
)

// ForwardIntoOn implements Layer.
func (Flatten) ForwardIntoOn(_ kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("flatten", ins, 1)
	copy(out.Data, ins[0].Data)
	return scratch
}

// ForwardIntoOn implements Layer.
func (ReLU) ForwardIntoOn(_ kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("relu", ins, 1)
	for i, v := range ins[0].Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return scratch
}

// maxPoolPlane pools one [H, W] plane starting at x[base] into
// out[oBase:]; shared by the serial and fanned pooling paths.
func maxPoolPlane(x, out []float64, base, oBase, w, oh, ow, k, stride int) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := math.Inf(-1)
			for kh := 0; kh < k; kh++ {
				row := base + (oy*stride+kh)*w + ox*stride
				for kw := 0; kw < k; kw++ {
					if v := x[row+kw]; v > best {
						best = v
					}
				}
			}
			out[oBase+oy*ow+ox] = best
		}
	}
}

// avgPoolPlane is maxPoolPlane's mean-pooling twin.
func avgPoolPlane(x, out []float64, base, oBase, w, oh, ow, k, stride int, inv float64) {
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			acc := 0.0
			for kh := 0; kh < k; kh++ {
				row := base + (oy*stride+kh)*w + ox*stride
				for kw := 0; kw < k; kw++ {
					acc += x[row+kw]
				}
			}
			out[oBase+oy*ow+ox] = acc * inv
		}
	}
}

// ForwardIntoOn implements Layer.
func (Add) ForwardIntoOn(_ kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	checkInputs("add", ins, 2)
	a, b := ins[0].Data, ins[1].Data
	for i := range out.Data {
		out.Data[i] = a[i] + b[i]
	}
	return scratch
}

// ForwardIntoOn implements Layer.
func (Concat) ForwardIntoOn(_ kernels.Backend, ins []*tensor.Tensor, out *tensor.Tensor, scratch []float64) []float64 {
	outC := 0
	for _, t := range ins {
		outC += t.Shape[1]
	}
	N, H, W := ins[0].Shape[0], ins[0].Shape[2], ins[0].Shape[3]
	plane := H * W
	for n := 0; n < N; n++ {
		cOff := 0
		for _, t := range ins {
			c := t.Shape[1]
			src := t.Data[n*c*plane : (n+1)*c*plane]
			dst := out.Data[(n*outC+cOff)*plane : (n*outC+cOff+c)*plane]
			copy(dst, src)
			cOff += c
		}
	}
	return scratch
}
