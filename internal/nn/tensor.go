// Package nn is a minimal reverse-mode automatic differentiation library
// with exactly the operators DTGM and its baselines need: channel-mixing
// linear maps, causal dilated 1-D convolutions, graph propagation, gating
// nonlinearities, LSTM cells and an Adam optimiser. It is written against
// the stdlib only and sized for the paper's small models (N=14 tables,
// hidden dimension ≤ 96).
package nn

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense float64 tensor participating in an autograd graph.
// Tensors produced by operators record a backward closure; calling Backward
// on a scalar loss propagates gradients to every parameter that requires
// them.
type Tensor struct {
	Data  []float64
	Shape []int
	Grad  []float64

	requiresGrad bool
	back         func()
	parents      []*Tensor
}

// NewTensor wraps data (not copied) with the given shape.
func NewTensor(data []float64, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("nn: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Zeros returns a zero tensor of the given shape.
func Zeros(shape ...int) *Tensor {
	return NewTensor(make([]float64, numel(shape)), shape...)
}

// Randn returns a tensor with N(0, scale²) entries — parameter init.
func Randn(rng *rand.Rand, scale float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	return t
}

// Param marks the tensor as a trainable parameter.
func Param(t *Tensor) *Tensor {
	t.requiresGrad = true
	t.Grad = make([]float64, len(t.Data))
	return t
}

// result builds an operator output tensor that needs gradients when any
// parent does.
func result(data []float64, shape []int, parents ...*Tensor) *Tensor {
	out := &Tensor{Data: data, Shape: append([]int(nil), shape...), parents: parents}
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.Grad = make([]float64, len(data))
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a
// scalar. Gradients accumulate into every reachable parameter's Grad.
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("nn: Backward requires a scalar")
	}
	if !t.requiresGrad {
		return
	}
	order := topoSort(t)
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].back != nil {
			order[i].back()
		}
	}
}

func topoSort(root *Tensor) []*Tensor {
	var order []*Tensor
	seen := make(map[*Tensor]bool)
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if seen[n] || !n.requiresGrad {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

func numel(shape []int) int {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: invalid dimension %d", s))
		}
		n *= s
	}
	return n
}

// sameShape panics unless a and b have identical shapes.
func sameShape(op string, a, b *Tensor) {
	if len(a.Shape) != len(b.Shape) {
		panic(fmt.Sprintf("nn: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("nn: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
		}
	}
}
