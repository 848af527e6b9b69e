package kernels

// naiveBackend holds the original internal/nn loops. It is the slow,
// obvious test oracle the blocked and parallel kernels are
// differentially tested against (alongside internal/refcheck's float64
// kernels) and the baseline of TestBlockedFasterThanNaiveSmoke. It is
// not part of the build: every Policy resolves to the blocked kernels.
type naiveBackend struct{}

// Name implements Backend.
func (naiveBackend) Name() string { return "naive" }

// GEMM implements Backend with the historical axpy row-sweep: each
// output row starts at its bias, then every nonzero a[i,l] sweeps
// b-row l into it. Per element the reduction is ascending l with zero
// weights skipped.
func (naiveBackend) GEMM(m, n, k int, a, b, bias, c []float64) {
	for i := 0; i < m; i++ {
		aRow := a[i*k : (i+1)*k]
		dst := c[i*n : (i+1)*n]
		bi := 0.0
		if bias != nil {
			bi = bias[i]
		}
		for j := range dst {
			dst[j] = bi
		}
		for l, av := range aRow {
			if av == 0 {
				continue
			}
			src := b[l*n : (l+1)*n]
			for j, sv := range src {
				dst[j] += av * sv
			}
		}
	}
}

// Im2col implements Backend.
func (naiveBackend) Im2col(g ConvGeom, inC int, x, cols []float64) {
	im2col(g, inC, x, cols)
}

// DWConv implements Backend with the original per-pixel
// bounds-checked loops.
func (naiveBackend) DWConv(g ConvGeom, batch, channels int, x, w, bias, out []float64) {
	H, W := g.H, g.W
	for n := 0; n < batch; n++ {
		for c := 0; c < channels; c++ {
			xBase := ((n*channels + c) * H) * W
			wBase := c * g.K * g.K
			bi := 0.0
			if bias != nil {
				bi = bias[c]
			}
			for oh := 0; oh < g.OH; oh++ {
				ihBase := oh*g.Stride - g.Pad
				for ow := 0; ow < g.OW; ow++ {
					iwBase := ow*g.Stride - g.Pad
					acc := bi
					for kh := 0; kh < g.K; kh++ {
						ih := ihBase + kh
						if ih < 0 || ih >= H {
							continue
						}
						xRow := xBase + ih*W
						wRow := wBase + kh*g.K
						for kw := 0; kw < g.K; kw++ {
							iw := iwBase + kw
							if iw < 0 || iw >= W {
								continue
							}
							acc += x[xRow+iw] * w[wRow+kw]
						}
					}
					out[((n*channels+c)*g.OH+oh)*g.OW+ow] = acc
				}
			}
		}
	}
}

// Dense implements Backend with one plain ascending-i dot per output.
func (naiveBackend) Dense(batch, in, out int, x, w, bias, y []float64) {
	for n := 0; n < batch; n++ {
		xRow := x[n*in : (n+1)*in]
		for o := 0; o < out; o++ {
			wRow := w[o*in : (o+1)*in]
			acc := 0.0
			if bias != nil {
				acc = bias[o]
			}
			for i, xv := range xRow {
				acc += wRow[i] * xv
			}
			y[n*out+o] = acc
		}
	}
}

// Axpy implements Backend.
func (naiveBackend) Axpy(alpha float64, x, y []float64) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Dot implements Backend.
func (naiveBackend) Dot(x, y []float64) float64 {
	acc := 0.0
	for i, xv := range x {
		acc += xv * y[i]
	}
	return acc
}

// Fan implements Backend: strictly sequential.
func (naiveBackend) Fan(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
