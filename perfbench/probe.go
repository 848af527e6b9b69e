package main

import (
	"fmt"
	"time"

	"mupod/internal/kernels"
	"mupod/internal/nn"
)

// kernelProbe is one timed kernel shape. Flops and bytes are computed
// from the shape (float64 operands read once and the output written
// once), not measured.
type kernelProbe struct {
	label  string
	flops  float64
	bytes  float64
	gflops float64
}

// probeBatch mirrors the evaluation batch size of the search and guard.
const probeBatch = 32

// largestShapes finds the conv layer with the largest GEMM and the
// depthwise layer with the most MACs in net.
func largestShapes(net *nn.Network) (gemm [3]int, dw *kernels.ConvGeom, dwC int) {
	best, bestDW := 0, 0
	for _, nd := range net.Nodes {
		if nd.Layer == nil || len(nd.Inputs) == 0 {
			continue
		}
		in := net.Nodes[nd.Inputs[0]].Shape
		switch l := nd.Layer.(type) {
		case *nn.Conv2D:
			m, n, k := l.OutC, nd.Shape[1]*nd.Shape[2], l.InC*l.K*l.K
			if m*n*k > best {
				best, gemm = m*n*k, [3]int{m, n, k}
			}
		case *nn.DepthwiseConv2D:
			if macs := l.C * nd.Shape[1] * nd.Shape[2] * l.K * l.K; macs > bestDW {
				bestDW, dwC = macs, l.C
				dw = &kernels.ConvGeom{H: in[1], W: in[2], K: l.K, Stride: l.Stride, Pad: l.Pad, OH: nd.Shape[1], OW: nd.Shape[2]}
			}
		}
	}
	return gemm, dw, dwC
}

// timeKernel runs fn in blocks for about budget and returns the median
// seconds per call across blocks.
func timeKernel(budget time.Duration, fn func()) float64 {
	fn() // warm caches and pools
	var per []float64
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) || len(per) < 5 {
		const calls = 4
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per = append(per, time.Since(t0).Seconds()/calls)
	}
	return median(per)
}

// probeKernels times the default backend's GEMM and DWConv from
// outside on the largest shapes of net. A net without depthwise layers
// reports a nil DWConv probe.
func probeKernels(net *nn.Network, budget time.Duration) (gemm kernelProbe, dw *kernelProbe) {
	be := kernels.MustNew(kernels.Policy{})
	g, geom, c := largestShapes(net)
	m, n, k := g[0], g[1], g[2]
	a, b, bias, out := filled(m*k), filled(k*n), filled(m), make([]float64, m*n)
	gemm = kernelProbe{
		label: fmt.Sprintf("gemm m=%d n=%d k=%d", m, n, k),
		flops: 2 * float64(m) * float64(n) * float64(k),
		bytes: 8 * float64(m*k+k*n+m+m*n),
	}
	gemm.gflops = gemm.flops / timeKernel(budget, func() { be.GEMM(m, n, k, a, b, bias, out) }) / 1e9
	if geom == nil {
		return gemm, nil
	}
	gm := *geom
	in := filled(probeBatch * c * gm.H * gm.W)
	w, bb := filled(c*gm.K*gm.K), filled(c)
	y := make([]float64, probeBatch*c*gm.OH*gm.OW)
	p := kernelProbe{
		label: fmt.Sprintf("dwconv batch=%d c=%d %dx%d k=%d s=%d", probeBatch, c, gm.H, gm.W, gm.K, gm.Stride),
		flops: 2 * float64(probeBatch*c*gm.OH*gm.OW*gm.K*gm.K),
		bytes: 8 * float64(len(in)+len(w)+len(bb)+len(y)),
	}
	p.gflops = p.flops / timeKernel(budget, func() { be.DWConv(gm, probeBatch, c, in, w, bb, y) }) / 1e9
	return gemm, &p
}

func filled(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%17)/17 - 0.5
	}
	return x
}
