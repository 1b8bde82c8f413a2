package nn

import (
	"math"
	"math/rand"
	"testing"
)

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// numGrad computes a numerical gradient of loss() w.r.t. p via central
// differences and compares it to p.Grad filled by Backward.
func checkGrad(t *testing.T, name string, p *Tensor, loss func() *Tensor) {
	t.Helper()
	l := loss()
	l.Backward()
	analytic := append([]float64(nil), p.Grad...)
	const h = 1e-5
	for i := range p.Data {
		orig := p.Data[i]
		p.Data[i] = orig + h
		lp := loss().Data[0]
		p.Data[i] = orig - h
		lm := loss().Data[0]
		p.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if diff := math.Abs(num - analytic[i]); diff > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("%s: grad[%d] analytic %.8f vs numeric %.8f", name, i, analytic[i], num)
		}
	}
	// Reset accumulated grads for the next check.
	p.ZeroGrad()
}

func TestMatMulGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Param(Randn(rng, 1, 3, 4))
	b := Param(Randn(rng, 1, 4, 2))
	target := Randn(rng, 1, 3, 2)
	loss := func() *Tensor { return MSE(MatMul(a, b), target) }
	checkGrad(t, "matmul/a", a, loss)
	b.ZeroGrad()
	checkGrad(t, "matmul/b", b, loss)
}

func TestElementwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := Param(Randn(rng, 1, 2, 5))
	target := Randn(rng, 1, 2, 5)
	for name, f := range map[string]func(*Tensor) *Tensor{
		"tanh":    Tanh,
		"sigmoid": Sigmoid,
		"relu":    ReLU,
	} {
		loss := func() *Tensor { return MSE(f(x), target) }
		checkGrad(t, name, x, loss)
	}
}

func TestAddMulGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Param(Randn(rng, 1, 6))
	b := Param(Randn(rng, 1, 6))
	target := Randn(rng, 1, 6)
	loss := func() *Tensor { return MSE(Mul(Add(a, b), b), target) }
	checkGrad(t, "addmul/a", a, loss)
	b.ZeroGrad()
	a.ZeroGrad()
	checkGrad(t, "addmul/b", b, loss)
}

func TestMAEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Param(Randn(rng, 1, 8))
	target := Randn(rng, 1, 8)
	checkGrad(t, "mae", x, func() *Tensor { return MAE(x, target) })
}

func TestChannelLinearGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewChannelLinear(rng, 3, 2)
	x := Param(Randn(rng, 1, 4, 3, 5)) // [N=4, C=3, T=5]
	x.Shape = []int{4, 3, 5}
	target := Randn(rng, 1, 4*2*5)
	target.Shape = []int{4, 2, 5}
	loss := func() *Tensor { return MSE(l.Apply(x), target) }
	checkGrad(t, "chanlin/W", l.W, loss)
	l.B.ZeroGrad()
	l.W.ZeroGrad()
	x.ZeroGrad()
	checkGrad(t, "chanlin/B", l.B, loss)
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	x.ZeroGrad()
	checkGrad(t, "chanlin/x", x, loss)
}

func TestCausalConvGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewCausalConv1D(rng, 2, 3, 2, 2)
	x := Param(Randn(rng, 1, 2*2*7))
	x.Shape = []int{2, 2, 7}
	target := Randn(rng, 1, 2*3*7)
	target.Shape = []int{2, 3, 7}
	loss := func() *Tensor { return MSE(l.Apply(x), target) }
	checkGrad(t, "conv/W", l.W, loss)
	l.B.ZeroGrad()
	l.W.ZeroGrad()
	x.ZeroGrad()
	checkGrad(t, "conv/B", l.B, loss)
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	x.ZeroGrad()
	checkGrad(t, "conv/x", x, loss)
}

func TestCausalConvIsCausal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewCausalConv1D(rng, 1, 1, 2, 1)
	x := Zeros(1, 1, 6)
	base := append([]float64(nil), l.Apply(x).Data...)
	// Perturbing the future must not change earlier outputs.
	x.Data[5] = 10
	pert := l.Apply(x)
	for t0 := 0; t0 < 5; t0++ {
		if pert.Data[t0] != base[t0] {
			t.Fatalf("output at t=%d changed by a future input", t0)
		}
	}
}

func TestGraphPropGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	adj := [][]float64{{0.5, 0.5, 0}, {0.3, 0.4, 0.3}, {0, 0.6, 0.4}}
	x := Param(Randn(rng, 1, 3*2*4))
	x.Shape = []int{3, 2, 4}
	target := Randn(rng, 1, 3*2*4)
	target.Shape = []int{3, 2, 4}
	checkGrad(t, "graphprop", x, func() *Tensor { return MSE(GraphProp(x, adj), target) })
}

func TestSliceOpsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := Param(Randn(rng, 1, 3, 5))
	target := Randn(rng, 1, 3)
	checkGrad(t, "slicelast", x, func() *Tensor { return MSE(SliceLast(x, -1), target) })
	target2 := Randn(rng, 1, 3, 2)
	checkGrad(t, "slicecols", x, func() *Tensor { return MSE(SliceCols(x, 1, 3), target2) })
}

func TestLSTMCellGradientAndShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cell := NewLSTMCell(rng, 3, 4)
	x := Randn(rng, 1, 2, 3)
	target := Randn(rng, 1, 2, 4)
	loss := func() *Tensor {
		h, c := Zeros(2, 4), Zeros(2, 4)
		h, _ = cell.Step(x, h, c)
		return MSE(h, target)
	}
	checkGrad(t, "lstm/Wx", cell.Wx, loss)
	for _, p := range cell.Params() {
		p.ZeroGrad()
	}
	checkGrad(t, "lstm/B", cell.B, loss)
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Fit y = 2x + 1 with a linear layer.
	l := NewLinear(rng, 1, 1)
	opt := NewAdam(append([]*Tensor{}, l.Params()...), 0.05)
	xs := make([]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		xs[i] = rng.Float64()*4 - 2
		ys[i] = 2*xs[i] + 1
	}
	x := NewTensor(xs, 32, 1)
	y := NewTensor(ys, 32, 1)
	first := MSE(l.Apply(x), y).Data[0]
	for it := 0; it < 300; it++ {
		loss := MSE(l.Apply(x), y)
		loss.Backward()
		opt.Step()
	}
	last := MSE(l.Apply(x), y).Data[0]
	if last > first/100 {
		t.Fatalf("Adam failed to fit: first %.4f last %.4f", first, last)
	}
	if math.Abs(l.W.Data[0]-2) > 0.1 || math.Abs(l.B.Data[0]-1) > 0.1 {
		t.Fatalf("fit parameters W=%.3f B=%.3f, want 2 and 1", l.W.Data[0], l.B.Data[0])
	}
}

func TestDropoutTrainAndEval(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := NewTensor([]float64{1, 1, 1, 1, 1, 1, 1, 1}, 8)
	if out := Dropout(x, 0.5, nil); out != x {
		t.Fatal("inference dropout must be the identity")
	}
	out := Dropout(x, 0.5, rng)
	zeros := 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor not scaled: %v", v)
		}
	}
	if zeros == 0 || zeros == len(out.Data) {
		t.Logf("degenerate dropout draw (%d zeros), acceptable but unusual", zeros)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a non-scalar must panic")
		}
	}()
	x := Param(Zeros(2, 2))
	Add(x, x).Backward()
}
