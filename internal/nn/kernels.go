package nn

import "math"

// The three kernels of the batch path (contract: package comment, nn.go).
// Each has an AVX implementation in kernels_amd64.s and a pure-Go twin
// here; the wrappers pick one per call from useAVX, and the equivalence
// tests flip useAVX to hold the two — and the per-sample loop — to the same
// bits. How the batch path maps onto chain:
//
//	forward:          dst = y,  seed = B (stride 0), a = x,   m = Wᵀ
//	input gradient:   dst = gx, seed = 0 (stride 0), a = gz,  m = W
//	weight gradient:  dst = seed = GW,               a = gzᵀ, m = x

// wideCols is the column count of the AVX wide tile: ten ymm accumulators.
const wideCols = 40

// chain computes dst[r*ds+c] = act(seed[r*ss+c] + Σ_{j<k} a[r*as+j]·m[j*ms+c])
// for r < rows, c < cols (strides in elements; seed may alias dst).
//
//firmvet:noalloc
func chain(dst, seed, a, m []float64, rows, k, cols, ds, ss, as, ms int, relu bool) {
	if rows <= 0 || cols <= 0 {
		return
	}
	// One bounds check per operand, up front: the kernels index raw memory.
	_ = dst[(rows-1)*ds+cols-1]
	_ = seed[(rows-1)*ss+cols-1]
	if k > 0 {
		_ = a[(rows-1)*as+k-1]
		_ = m[(k-1)*ms+cols-1]
	}
	if !useAVX || k == 0 {
		chainGo(dst, seed, a, m, rows, k, cols, ds, ss, as, ms, relu)
		return
	}
	r := 0
	if relu {
		r = 1
	}
	c := 0
	for ; cols-c >= wideCols; c += wideCols {
		chainWideAVX(&dst[c], &seed[c], &a[0], &m[c], rows, k, ds, ss, as, ms, r)
	}
	for ; c < cols; c += 8 {
		chainNarrowAVX(&dst[c], &seed[c], &a[0], &m[c], rows, k, min(8, cols-c), ds, ss, as, ms, r)
	}
}

// relu is `if z < 0 { z = 0 }` without the branch: pre-activations straddle
// zero, so the branch mispredicts about every other element.
func relu(z float64) float64 {
	var keep uint64
	if !(z < 0) {
		keep = 1
	}
	return math.Float64frombits(math.Float64bits(z) & -keep)
}

// chainGo is chain's pure-Go twin: eight columns at a time (then four, then
// one), so eight independent chains share each a[r][j] load and hide the
// FP-add latency a single chain would serialize on.
//
//firmvet:noalloc
func chainGo(dst, seed, a, m []float64, rows, k, cols, ds, ss, as, ms int, act bool) {
	for r := 0; r < rows; r++ {
		ar := a[r*as : r*as+k]
		d := dst[r*ds : r*ds+cols]
		s := seed[r*ss : r*ss+cols]
		c := 0
		for ; c+8 <= cols; c += 8 {
			z0, z1, z2, z3 := s[c], s[c+1], s[c+2], s[c+3]
			z4, z5, z6, z7 := s[c+4], s[c+5], s[c+6], s[c+7]
			off := c
			for _, aj := range ar {
				mr := m[off : off+8 : off+8]
				z0 += aj * mr[0]
				z1 += aj * mr[1]
				z2 += aj * mr[2]
				z3 += aj * mr[3]
				z4 += aj * mr[4]
				z5 += aj * mr[5]
				z6 += aj * mr[6]
				z7 += aj * mr[7]
				off += ms
			}
			if act {
				z0, z1, z2, z3 = relu(z0), relu(z1), relu(z2), relu(z3)
				z4, z5, z6, z7 = relu(z4), relu(z5), relu(z6), relu(z7)
			}
			d[c], d[c+1], d[c+2], d[c+3] = z0, z1, z2, z3
			d[c+4], d[c+5], d[c+6], d[c+7] = z4, z5, z6, z7
		}
		for ; c+4 <= cols; c += 4 {
			z0, z1, z2, z3 := s[c], s[c+1], s[c+2], s[c+3]
			off := c
			for _, aj := range ar {
				mr := m[off : off+4 : off+4]
				z0 += aj * mr[0]
				z1 += aj * mr[1]
				z2 += aj * mr[2]
				z3 += aj * mr[3]
				off += ms
			}
			if act {
				z0, z1, z2, z3 = relu(z0), relu(z1), relu(z2), relu(z3)
			}
			d[c], d[c+1], d[c+2], d[c+3] = z0, z1, z2, z3
		}
		for ; c < cols; c++ {
			z := s[c]
			off := c
			for _, aj := range ar {
				z += aj * m[off]
				off += ms
			}
			if act {
				z = relu(z)
			}
			d[c] = z
		}
	}
}

// gzKernel computes gz[b][o] = gy[b][o]·act'(y[b][o]) over dense rows×cols
// matrices and writes it twice: sample-major into gz (same layout) and
// output-major into gzT (gzT[o*tStride+b]).
//
//firmvet:noalloc
func gzKernel(gy, y, gz, gzT []float64, rows, cols, tStride int, act Activation) {
	if rows <= 0 || cols <= 0 {
		return
	}
	n := rows * cols
	_, _, _ = gy[n-1], y[n-1], gz[n-1]
	_ = gzT[(cols-1)*tStride+rows-1]
	r4, c4 := 0, 0
	if useAVX {
		r4, c4 = rows&^3, cols&^3
	}
	if r4 > 0 && c4 > 0 {
		gzAVX(&gy[0], &y[0], &gz[0], &gzT[0], r4, c4, cols, tStride, int(act))
		gzGo(gy, y, gz, gzT, 0, r4, c4, cols, cols, tStride, act)
		gzGo(gy, y, gz, gzT, r4, rows, 0, cols, cols, tStride, act)
		return
	}
	gzGo(gy, y, gz, gzT, 0, rows, 0, cols, cols, tStride, act)
}

// gzGo is gzKernel's pure-Go twin over rows [r0,r1) × columns [c0,c1). The
// ReLU factor is a 0/1 computed without a branch (see relu).
//
//firmvet:noalloc
func gzGo(gy, y, gz, gzT []float64, r0, r1, c0, c1, stride, tStride int, act Activation) {
	for b := r0; b < r1; b++ {
		for o := c0; o < c1; o++ {
			i := b*stride + o
			f := 1.0
			switch act {
			case ReLU:
				var pos uint64
				if y[i] > 0 {
					pos = 1
				}
				f = math.Float64frombits(pos * oneBits)
			case Tanh:
				f = 1 - y[i]*y[i]
			}
			v := gy[i] * f
			gz[i] = v
			gzT[o*tStride+b] = v
		}
	}
}

const oneBits = 0x3FF0000000000000 // math.Float64bits(1)

// sumRows adds each of the rows of the output-major matrix gzT (n columns,
// row stride tStride) into gb: gb[o] += Σ_b gzT[o][b] in ascending b — the
// bias-gradient chains. Four rows run interleaved for the same reason
// chainGo blocks columns.
//
//firmvet:noalloc
func sumRows(gb, gzT []float64, rows, n, tStride int) {
	o := 0
	for ; o+4 <= rows; o += 4 {
		r0 := gzT[o*tStride : o*tStride+n]
		r1 := gzT[(o+1)*tStride : (o+1)*tStride+n][:n]
		r2 := gzT[(o+2)*tStride : (o+2)*tStride+n][:n]
		r3 := gzT[(o+3)*tStride : (o+3)*tStride+n][:n]
		s0, s1, s2, s3 := gb[o], gb[o+1], gb[o+2], gb[o+3]
		for b, v := range r0 {
			s0 += v
			s1 += r1[b]
			s2 += r2[b]
			s3 += r3[b]
		}
		gb[o], gb[o+1], gb[o+2], gb[o+3] = s0, s1, s2, s3
	}
	for ; o < rows; o++ {
		s := gb[o]
		for _, v := range gzT[o*tStride : o*tStride+n] {
			s += v
		}
		gb[o] = s
	}
}
