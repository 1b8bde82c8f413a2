package nn

import "math"

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	sameShape("Add", a, b)
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + b.Data[i]
	}
	out := result(data, a.Shape, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Mul returns the Hadamard product a ⊙ b (same shape) — the TCN gate.
func Mul(a, b *Tensor) *Tensor {
	sameShape("Mul", a, b)
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * b.Data[i]
	}
	out := result(data, a.Shape, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i] * b.Data[i]
				}
			}
			if b.requiresGrad {
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i] * a.Data[i]
				}
			}
		}
	}
	return out
}

// Tanh applies tanh element-wise.
func Tanh(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = math.Tanh(a.Data[i])
	}
	out := result(data, a.Shape, a)
	if out.requiresGrad {
		out.back = func() {
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * (1 - data[i]*data[i])
			}
		}
	}
	return out
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = 1 / (1 + math.Exp(-a.Data[i]))
	}
	out := result(data, a.Shape, a)
	if out.requiresGrad {
		out.back = func() {
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * data[i] * (1 - data[i])
			}
		}
	}
	return out
}

// ReLU applies max(0, x) element-wise.
func ReLU(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		if v > 0 {
			data[i] = v
		}
	}
	out := result(data, a.Shape, a)
	if out.requiresGrad {
		out.back = func() {
			for i := range out.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// MatMul returns a·b for 2-D tensors [m,k]×[k,n] → [m,n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic("nn: MatMul shape mismatch")
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	data := make([]float64, m*n)
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		or := data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				or[j] += av * br[j]
			}
		}
	}
	out := result(data, []int{m, n}, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				// dA = dOut · Bᵀ
				for i := 0; i < m; i++ {
					gr := out.Grad[i*n : (i+1)*n]
					agr := a.Grad[i*k : (i+1)*k]
					for p := 0; p < k; p++ {
						br := b.Data[p*n : (p+1)*n]
						s := 0.0
						for j := 0; j < n; j++ {
							s += gr[j] * br[j]
						}
						agr[p] += s
					}
				}
			}
			if b.requiresGrad {
				// dB = Aᵀ · dOut
				for i := 0; i < m; i++ {
					ar := a.Data[i*k : (i+1)*k]
					gr := out.Grad[i*n : (i+1)*n]
					for p := 0; p < k; p++ {
						av := ar[p]
						if av == 0 {
							continue
						}
						bgr := b.Grad[p*n : (p+1)*n]
						for j := 0; j < n; j++ {
							bgr[j] += av * gr[j]
						}
					}
				}
			}
		}
	}
	return out
}

// AddBias adds a bias vector along the last dimension of a.
func AddBias(a, bias *Tensor) *Tensor {
	last := a.Shape[len(a.Shape)-1]
	if len(bias.Shape) != 1 || bias.Shape[0] != last {
		panic("nn: AddBias dimension mismatch")
	}
	data := make([]float64, len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + bias.Data[i%last]
	}
	out := result(data, a.Shape, a, bias)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if bias.requiresGrad {
				for i := range out.Grad {
					bias.Grad[i%last] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// SliceLast returns a[..., idx] dropping the last (time) dimension — used
// to take the final timestep of a TCN stack.
func SliceLast(a *Tensor, idx int) *Tensor {
	last := a.Shape[len(a.Shape)-1]
	if idx < 0 {
		idx += last
	}
	rows := len(a.Data) / last
	data := make([]float64, rows)
	for r := 0; r < rows; r++ {
		data[r] = a.Data[r*last+idx]
	}
	out := result(data, a.Shape[:len(a.Shape)-1], a)
	if out.requiresGrad {
		out.back = func() {
			for r := 0; r < rows; r++ {
				a.Grad[r*last+idx] += out.Grad[r]
			}
		}
	}
	return out
}

// MAE returns the mean absolute error between pred and target (the paper's
// training loss, §IV-A3). target carries no gradient.
func MAE(pred, target *Tensor) *Tensor {
	sameShape("MAE", pred, target)
	s := 0.0
	for i := range pred.Data {
		s += math.Abs(pred.Data[i] - target.Data[i])
	}
	n := float64(len(pred.Data))
	out := result([]float64{s / n}, []int{1}, pred)
	if out.requiresGrad {
		out.back = func() {
			g := out.Grad[0] / n
			for i := range pred.Data {
				d := pred.Data[i] - target.Data[i]
				switch {
				case d > 0:
					pred.Grad[i] += g
				case d < 0:
					pred.Grad[i] -= g
				}
			}
		}
	}
	return out
}

// MSE returns the mean squared error between pred and target.
func MSE(pred, target *Tensor) *Tensor {
	sameShape("MSE", pred, target)
	s := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		s += d * d
	}
	n := float64(len(pred.Data))
	out := result([]float64{s / n}, []int{1}, pred)
	if out.requiresGrad {
		out.back = func() {
			g := 2 * out.Grad[0] / n
			for i := range pred.Data {
				pred.Grad[i] += g * (pred.Data[i] - target.Data[i])
			}
		}
	}
	return out
}

// Dropout zeroes elements with probability p during training, scaling the
// survivors by 1/(1-p). rng==nil or p<=0 is the identity (inference).
func Dropout(a *Tensor, p float64, rng interface{ Float64() float64 }) *Tensor {
	if p <= 0 || rng == nil {
		return a
	}
	keep := 1 - p
	mask := make([]float64, len(a.Data))
	data := make([]float64, len(a.Data))
	for i := range data {
		if rng.Float64() < keep {
			mask[i] = 1 / keep
			data[i] = a.Data[i] * mask[i]
		}
	}
	out := result(data, a.Shape, a)
	if out.requiresGrad {
		out.back = func() {
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * mask[i]
			}
		}
	}
	return out
}
