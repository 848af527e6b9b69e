//go:build !amd64

package kernels

// haveFMAKernel is false off amd64: GEMM runs the Go micro-kernels
// only.
var haveFMAKernel = false

func kern8x4FMA(k int, a *float64, lda int, pack *float64, c *float64, ldc int, bias *[8]float64) {
	panic("kernels: assembly GEMM micro-kernel unavailable")
}
