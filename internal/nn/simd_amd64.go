package nn

// useSIMD selects the AVX2 multiply kernel (mulAdd2) in matmulSerial,
// matmulTSerial and matmulTARows. It is set once, from the CPU probe below;
// tests flip it to compare the two paths.
var useSIMD = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches, which is what mulAdd2 needs.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mulAdd2 adds to two rows of d, ldd elements apart, the products of two
// rows of a left operand with a k-row right operand, over the first cols
// columns; cols must be a multiple of 4 and k positive. Row r, step kk of
// the left operand is a[r*ars+kk*aks]; row kk of the right operand starts
// at b[kk*ldb]. It keeps the accumulation order of the Go kernels (see
// matrix.go), so it is bit-identical to them.
//
//go:noescape
func mulAdd2(d *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, k, cols int)
