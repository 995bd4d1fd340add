//go:build !amd64

package nn

// Non-amd64 builds always run the pure-Go kernels; the constant lets the
// compiler drop the assembly branches entirely.
const useAVX = false

func chainWideAVX(dst, seed, a, m *float64, rows, k, dstStride, seedStride, aStride, mStride, relu int) {
	panic("nn: AVX kernel unavailable on this architecture")
}

func chainNarrowAVX(dst, seed, a, m *float64, rows, k, cols, dstStride, seedStride, aStride, mStride, relu int) {
	panic("nn: AVX kernel unavailable on this architecture")
}

func gzAVX(gy, y, gz, gzT *float64, rows, cols, stride, tStride, mode int) {
	panic("nn: AVX kernel unavailable on this architecture")
}
