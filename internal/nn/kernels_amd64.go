package nn

// useAVX gates the assembly kernels: AVX must be present AND the OS must
// save ymm state (checked via XGETBV). When false — or on other
// architectures — the batch path runs the pure-Go twins in kernels.go, which
// produce bit-identical outputs; the kernels are a throughput upgrade, never
// a semantic one. Set once at init; only the equivalence tests flip it.
var useAVX = hasAVXAsm()

// hasAVXAsm reports CPUID AVX + OSXSAVE with ymm state enabled in XCR0.
func hasAVXAsm() bool

// The three kernels, implemented in kernels_amd64.s; kernels.go documents
// the contract and holds the dispatching wrappers.

//go:noescape
func chainWideAVX(dst, seed, a, m *float64, rows, k, dstStride, seedStride, aStride, mStride, relu int)

//go:noescape
func chainNarrowAVX(dst, seed, a, m *float64, rows, k, cols, dstStride, seedStride, aStride, mStride, relu int)

//go:noescape
func gzAVX(gy, y, gz, gzT *float64, rows, cols, stride, tStride, mode int)
