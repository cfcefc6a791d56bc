// Package nn is a small from-scratch neural-network library: dense float64
// matrices, a tape-based reverse-mode autodiff engine, and the layers and
// optimizers needed to build the paper's GAT graph encoder and self-attention
// strategy network. It replaces TensorFlow for training HeteroG's agent.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all must share a length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills with Xavier/Glorot-uniform values.
func (m *Matrix) Randomize(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// The three multiply kernels below share one accumulation order, which is
// what keeps the policy step bit-reproducible across them: every dst element
// starts from its current value and adds one product per k index, in
// ascending k, rounding after each addition, and skips the products whose
// left-operand entry is zero. That is exactly the order of the plain
// i-k-j loop over materialized operands (for a·bᵀ and aᵀ·b: over the
// materialized transpose). The kernels block over pairs of dst rows and
// quads of dst columns, eight running sums per block; they never
// split or reassociate the k sum.

// checkMatMul panics unless dst (n x p) can hold the product of an n x k
// left operand and a k x p right operand.
func checkMatMul(op string, dst *Matrix, n, k1, k2, p int) {
	if k1 != k2 || dst.Rows != n || dst.Cols != p {
		panic(fmt.Sprintf("nn: %s shape mismatch (%dx%d)x(%dx%d)->(%dx%d)", op, n, k1, k2, p, dst.Rows, dst.Cols))
	}
}

// dotTail adds Σ_kk A[kk]·B[kk] to s in ascending kk, skipping zero A
// entries, where A[kk] = a[kk*as] and B[kk] = b[kk*bs]. The kernels use it
// for the rows and columns left over by their 2x4 blocks.
func dotTail(s float64, a []float64, as int, b []float64, bs, k int) float64 {
	for kk := 0; kk < k; kk++ {
		if av := a[kk*as]; av != 0 {
			s += av * b[kk*bs]
		}
	}
	return s
}

// matmulInto computes dst += a·b.
func matmulInto(dst, a, b *Matrix) {
	checkMatMul("matmul", dst, a.Rows, a.Cols, b.Rows, b.Cols)
	n, k, p := a.Rows, a.Cols, b.Cols
	bd := b.Data
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)]
		d0 := dst.Data[i*p : (i+1)*p]
		d1 := dst.Data[(i+1)*p : (i+2)*p]
		j := 0
		for ; j+4 <= p; j += 4 {
			s00, s01, s02, s03 := d0[j], d0[j+1], d0[j+2], d0[j+3]
			s10, s11, s12, s13 := d1[j], d1[j+1], d1[j+2], d1[j+3]
			off := j
			for kk, v0 := range a0 {
				v1 := a1[kk]
				bb := bd[off : off+4 : off+4]
				off += p
				if v0 != 0 {
					s00 += v0 * bb[0]
					s01 += v0 * bb[1]
					s02 += v0 * bb[2]
					s03 += v0 * bb[3]
				}
				if v1 != 0 {
					s10 += v1 * bb[0]
					s11 += v1 * bb[1]
					s12 += v1 * bb[2]
					s13 += v1 * bb[3]
				}
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < p; j++ {
			d0[j] = dotTail(d0[j], a0, 1, bd[j:], p, k)
			d1[j] = dotTail(d1[j], a1, 1, bd[j:], p, k)
		}
	}
	if i < n {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = dotTail(drow[j], arow, 1, bd[j:], p, k)
		}
	}
}

// matmulTInto computes dst += a·bᵀ without materializing the transpose: a is
// n x k, b is p x k, and both operands are read along contiguous rows.
func matmulTInto(dst, a, b *Matrix) {
	checkMatMul("matmulT", dst, a.Rows, a.Cols, b.Cols, b.Rows)
	n, k, p := a.Rows, a.Cols, b.Rows
	i := 0
	for ; i+2 <= n; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		a1 = a1[:len(a0)]
		d0 := dst.Data[i*p : (i+1)*p]
		d1 := dst.Data[(i+1)*p : (i+2)*p]
		j := 0
		for ; j+4 <= p; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b0 = b0[:len(a0)]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b1 = b1[:len(a0)]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b2 = b2[:len(a0)]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			b3 = b3[:len(a0)]
			s00, s01, s02, s03 := d0[j], d0[j+1], d0[j+2], d0[j+3]
			s10, s11, s12, s13 := d1[j], d1[j+1], d1[j+2], d1[j+3]
			for kk, v0 := range a0 {
				v1 := a1[kk]
				x0, x1, x2, x3 := b0[kk], b1[kk], b2[kk], b3[kk]
				if v0 != 0 {
					s00 += v0 * x0
					s01 += v0 * x1
					s02 += v0 * x2
					s03 += v0 * x3
				}
				if v1 != 0 {
					s10 += v1 * x0
					s11 += v1 * x1
					s12 += v1 * x2
					s13 += v1 * x3
				}
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < p; j++ {
			brow := b.Data[j*k : (j+1)*k]
			d0[j] = dotTail(d0[j], a0, 1, brow, 1, k)
			d1[j] = dotTail(d1[j], a1, 1, brow, 1, k)
		}
	}
	if i < n {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*p : (i+1)*p]
		for j := range drow {
			drow[j] = dotTail(drow[j], arow, 1, b.Data[j*k:(j+1)*k], 1, k)
		}
	}
}

// tileK bounds the k range matmulTAInto walks per pass, so the strided
// column strips it reads stay cache-resident. Splitting the k loop into
// ascending tiles keeps the accumulation order: the running sums are
// stored and reloaded exactly between tiles.
const tileK = 256

// matmulTAInto computes dst += aᵀ·b without materializing the transpose: a
// is k x n, b is k x p.
func matmulTAInto(dst, a, b *Matrix) {
	checkMatMul("matmulTA", dst, a.Cols, a.Rows, b.Rows, b.Cols)
	n, k, p := a.Cols, a.Rows, b.Cols
	ad, bd := a.Data, b.Data
	for k0 := 0; k0 < k; k0 += tileK {
		kt := min(tileK, k-k0)
		i := 0
		for ; i+2 <= n; i += 2 {
			d0 := dst.Data[i*p : (i+1)*p]
			d1 := dst.Data[(i+1)*p : (i+2)*p]
			j := 0
			for ; j+4 <= p; j += 4 {
				s00, s01, s02, s03 := d0[j], d0[j+1], d0[j+2], d0[j+3]
				s10, s11, s12, s13 := d1[j], d1[j+1], d1[j+2], d1[j+3]
				ao, bo := k0*n+i, k0*p+j
				for kk := 0; kk < kt; kk++ {
					aa := ad[ao : ao+2 : ao+2]
					bb := bd[bo : bo+4 : bo+4]
					ao += n
					bo += p
					if v0 := aa[0]; v0 != 0 {
						s00 += v0 * bb[0]
						s01 += v0 * bb[1]
						s02 += v0 * bb[2]
						s03 += v0 * bb[3]
					}
					if v1 := aa[1]; v1 != 0 {
						s10 += v1 * bb[0]
						s11 += v1 * bb[1]
						s12 += v1 * bb[2]
						s13 += v1 * bb[3]
					}
				}
				d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
			}
			for ; j < p; j++ {
				d0[j] = dotTail(d0[j], ad[k0*n+i:], n, bd[k0*p+j:], p, kt)
				d1[j] = dotTail(d1[j], ad[k0*n+i+1:], n, bd[k0*p+j:], p, kt)
			}
		}
		if i < n {
			drow := dst.Data[i*p : (i+1)*p]
			for j := range drow {
				drow[j] = dotTail(drow[j], ad[k0*n+i:], n, bd[k0*p+j:], p, kt)
			}
		}
	}
}

// MatMul returns a x b as a fresh matrix.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	matmulInto(out, a, b)
	return out
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// addInto computes dst += src.
func addInto(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("nn: add shape mismatch %dx%d += %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}
