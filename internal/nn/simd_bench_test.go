package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernels times each multiply kernel on the policy step's largest
// shapes, on the path useSIMD selects: attention times values (500x500 by
// 500x32), the 500x32 projections, and their transposed backward forms.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	for _, s := range [][3]int{{500, 500, 32}, {500, 32, 32}, {500, 32, 64}, {500, 32, 500}} {
		n, k, p := s[0], s[1], s[2]
		a, bm := randMat(rng, n, k), randMat(rng, k, p)
		bt, at := randMat(rng, p, k), randMat(rng, k, n)
		dst := NewMatrix(n, p)
		for _, c := range []struct {
			name   string
			kernel func(dst, a, b *Matrix)
			a, b   *Matrix
		}{
			{"matmul", matmulSerial, a, bm},
			{"matmulT", matmulTSerial, a, bt},
			{"matmulTA", func(dst, a, b *Matrix) { matmulTARows(dst, a, b, 0, a.Cols) }, at, bm},
		} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", c.name, n, k, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.kernel(dst, c.a, c.b)
				}
			})
		}
	}
}
