//go:build !amd64

package nn

// useSIMD is false off amd64: the multiply kernels run their Go loops.
var useSIMD = false

func mulAdd2(d *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, k, cols int) {
	panic("nn: no SIMD multiply kernel on this architecture")
}
