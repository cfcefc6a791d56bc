package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// specialMat returns an r x c matrix of random values mixed with ±0,
// subnormals, values whose products are subnormal or overflow, ±Inf and
// NaN, and one all-zero row when r > 1.
func specialMat(rng *rand.Rand, r, c int) *Matrix {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -5e-324 * 3, 2.5e-310,
		1e-160, -3e-170, 1e300, -7e299,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	m := NewMatrix(r, c)
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
	if r > 1 {
		clear(m.Row(rng.Intn(r)))
	}
	return m
}

// TestAssemblyKernelsBitIdentical runs each multiply kernel on the Go loops
// and on the SIMD kernel (useSIMD off and on) and requires the outputs to
// be bit-identical, NaN matching any NaN. The shapes have odd row counts,
// column counts that are not multiples of 8 or 16 (and a few under 4, which
// stay on the Go loops), k of 1 and k beyond tileK; operands and the
// starting dst hold ±0, subnormals, ±Inf and NaN. Each shape runs at
// GOMAXPROCS 1 and 2; the largest splits into row bands at 2.
func TestAssemblyKernelsBitIdentical(t *testing.T) {
	if !useSIMD {
		t.Skip("no SIMD multiply kernel on this CPU")
	}
	defer func() { useSIMD = true }()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(41))
	shapes := [][3]int{
		{7, 1, 13}, {9, 3, 21}, {1, 9, 16}, {2, 17, 36}, {3, 5, 3}, {5, 40, 4},
		{11, 6, 44}, {33, tileK + 37, 12}, {6, 2*tileK + 3, 27}, {301, 37, 29},
	}
	for _, s := range shapes {
		n, k, p := s[0], s[1], s[2]
		start := specialMat(rng, n, p)
		a, b := specialMat(rng, n, k), specialMat(rng, k, p)
		bt, at := specialMat(rng, p, k), specialMat(rng, k, n)
		for _, c := range []struct {
			name   string
			kernel func(dst, a, b *Matrix)
			a, b   *Matrix
		}{
			{"matmul", matmulInto, a, b},
			{"matmulT", matmulTInto, a, bt},
			{"matmulTA", matmulTAInto, at, b},
		} {
			for procs := 1; procs <= 2; procs++ {
				runtime.GOMAXPROCS(procs)
				run := func(simd bool) *Matrix {
					useSIMD = simd
					dst := start.Clone()
					c.kernel(dst, c.a, c.b)
					return dst
				}
				want, got := run(false), run(true)
				name := fmt.Sprintf("%s (%dx%d)x(%dx%d) at GOMAXPROCS=%d", c.name, n, k, k, p, procs)
				for i, w := range want.Data {
					g := got.Data[i]
					if math.IsNaN(w) && math.IsNaN(g) {
						continue
					}
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: element %d = %v (%#x), Go loops %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}
