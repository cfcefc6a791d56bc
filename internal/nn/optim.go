package nn

import "math"

// Adam is the Adam optimizer. Moment state is keyed by parameter-matrix
// identity, so the same optimizer instance can be reused across tapes.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
	m    map[*Matrix][]float64
	v    map[*Matrix][]float64
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*Matrix][]float64), v: make(map[*Matrix][]float64),
	}
}

// Step applies one update to every parameter node (ascending the recorded
// scalar if maximize is true, descending otherwise) and zeroes its gradient.
func (a *Adam) Step(params []*Node, maximize bool) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		w := p.Value
		g := p.Grad
		m, ok := a.m[w]
		if !ok {
			m = make([]float64, len(w.Data))
			a.m[w] = m
			a.v[w] = make([]float64, len(w.Data))
		}
		v := a.v[w]
		sign := -1.0
		if maximize {
			sign = 1.0
		}
		for i := range w.Data {
			gi := g.Data[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			w.Data[i] += sign * a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
			g.Data[i] = 0
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most max.
func ClipGradNorm(params []*Node, max float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		scale := max / norm
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}
