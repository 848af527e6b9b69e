package kernels

// haveFMAKernel gates the assembly GEMM micro-kernel (see the package
// doc): set when the CPU has FMA3 and the OS saves AVX register state.
var haveFMAKernel = hasFMA()

// hasFMA reports CPUID FMA, AVX and OSXSAVE, and XCR0 enabling XMM and
// YMM state.
func hasFMA() bool

// kern8x4FMA is the assembly micro-kernel behind kern8x4: 8 rows of A
// (row stride lda) against one packed 4-column panel, writing 8×4
// outputs (row stride ldc). k must be ≥ 1.
//
//go:noescape
func kern8x4FMA(k int, a *float64, lda int, pack *float64, c *float64, ldc int, bias *[8]float64)
