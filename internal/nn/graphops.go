package nn

import "math"

// GraphAttention records one sparse GAT attention head:
//
//	e_ij   = LeakyReLU(s1_i + s2_j, 0.2)      for j in neighbors[i]
//	α_i·   = softmax over e_i·
//	out_i  = Σ_j α_ij · h_j
//
// h is N x F (the projected features), s1 and s2 are N x 1 attention scores,
// and neighbors[i] lists node i's neighbourhood (include i itself for the
// paper's self-inclusive N_o). Memory and time are O(E), not O(N²).
func (t *Tape) GraphAttention(h, s1, s2 *Node, neighbors [][]int) *Node {
	const slope = 0.2
	n, f := h.Value.Rows, h.Value.Cols
	if s1.Value.Rows != n || s2.Value.Rows != n || s1.Value.Cols != 1 || s2.Value.Cols != 1 {
		panic("nn: GraphAttention score shape mismatch")
	}
	if len(neighbors) != n {
		panic("nn: GraphAttention neighbor list length mismatch")
	}
	v := t.alloc(n, f)
	// alpha and raw are flat CSR buffers over the concatenated neighbour
	// lists: entry off+k belongs to neighbors[i][k], where off is the
	// total length of the lists before i. alpha holds the attention
	// weights, raw the pre-activation logits (for the LeakyReLU
	// derivative).
	edges := 0
	for _, nb := range neighbors {
		edges += len(nb)
	}
	alphas := t.scratch(edges)
	raws := t.scratch(edges)
	off := 0
	for i := 0; i < n; i++ {
		nb := neighbors[i]
		if len(nb) == 0 {
			continue
		}
		alpha := alphas[off : off+len(nb)]
		raw := raws[off : off+len(nb)]
		off += len(nb)
		maxv := math.Inf(-1)
		for k, j := range nb {
			r := s1.Value.Data[i] + s2.Value.Data[j]
			raw[k] = r
			e := r
			if e < 0 {
				e *= slope
			}
			alpha[k] = e
			if e > maxv {
				maxv = e
			}
		}
		var sum float64
		for k := range alpha {
			alpha[k] = math.Exp(alpha[k] - maxv)
			sum += alpha[k]
		}
		out := v.Row(i)
		for k, j := range nb {
			alpha[k] /= sum
			hr := h.Value.Row(j)
			a := alpha[k]
			for c := 0; c < f; c++ {
				out[c] += a * hr[c]
			}
		}
	}
	node := t.node(v, h, s1, s2)
	if !node.requiresGrad {
		return node
	}
	node.back = func() {
		dAlphas := t.scratch(edges)
		var gh, gs1, gs2 *Matrix
		if h.requiresGrad {
			gh = t.grad(h)
		}
		if s1.requiresGrad {
			gs1 = t.grad(s1)
		}
		if s2.requiresGrad {
			gs2 = t.grad(s2)
		}
		off := 0
		for i := 0; i < n; i++ {
			nb := neighbors[i]
			if len(nb) == 0 {
				continue
			}
			gout := node.Grad.Row(i)
			alpha := alphas[off : off+len(nb)]
			raw := raws[off : off+len(nb)]
			dAlpha := dAlphas[off : off+len(nb)]
			off += len(nb)
			// dα_ik = gout · h_k ; dh_k += α_ik gout
			var dot float64
			for k, j := range nb {
				hr := h.Value.Row(j)
				var da float64
				a := alpha[k]
				for c := 0; c < f; c++ {
					da += gout[c] * hr[c]
				}
				if gh != nil {
					ghr := gh.Row(j)
					for c := 0; c < f; c++ {
						ghr[c] += a * gout[c]
					}
				}
				dAlpha[k] = da
				dot += a * da
			}
			for k, j := range nb {
				de := alpha[k] * (dAlpha[k] - dot)
				if raw[k] < 0 {
					de *= slope
				}
				if gs1 != nil {
					gs1.Data[i] += de
				}
				if gs2 != nil {
					gs2.Data[j] += de
				}
			}
		}
	}
	return node
}
