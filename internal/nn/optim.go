package nn

import "math"

// Adam implements the Adam optimiser with decoupled L2 penalty and step
// learning-rate decay, matching the paper's training setting (§VI-G1:
// Adam, initial LR 1e-3, LR ×0.1 every 20 epochs, L2 1e-5).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	params []*Tensor
	m, v   [][]float64
	t      int
}

// NewAdam returns an Adam optimiser over the given parameters.
func NewAdam(params []*Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: 1e-5,
		params:      params,
	}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Data))
		a.v[i] = make([]float64, len(p.Data))
	}
	return a
}

// Step applies one update from the accumulated gradients and clears them.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j] + a.WeightDecay*p.Data[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			p.Data[j] -= a.LR * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.Eps)
			p.Grad[j] = 0
		}
	}
}

// DecayLR multiplies the learning rate by factor (the ×0.1-every-20-epochs
// schedule).
func (a *Adam) DecayLR(factor float64) { a.LR *= factor }
