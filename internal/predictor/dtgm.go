package predictor

import (
	"fmt"
	"math"
	"math/rand"

	"aets/internal/nn"
)

// DTGMConfig parameterises the Deep Temporal Graph Model. The defaults
// match the paper's experimental setting (§VI-G1): hidden dimension 48,
// Adam at 1e-3 decayed ×0.1 every 20 epochs, L2 1e-5, dropout 0.3.
type DTGMConfig struct {
	Window  int // input history length T_in
	Horizon int // forecast length T_f the head is trained for
	Hidden  int // hidden channel dimension (Fig 14 sweeps this; optimum 48)
	Layers  int // stacked gated-TCN + GCN layers
	Hops    int // K: highest adjacency power in the GCN sum
	Epochs  int
	Batch   int
	LR      float64
	Dropout float64
	// UseGCN toggles the graph component; false gives the "w/o gcn"
	// ablation of Table IV.
	UseGCN bool
	// SlotPeriod, when non-zero, adds sin/cos time-of-cycle input channels
	// with the given period in slots (the daily rhythm the rates follow).
	// Access-rate forecasters conventionally condition on time of day;
	// QB5000's features do the same.
	SlotPeriod int
	Seed       int64
}

// DefaultDTGMConfig returns the paper's configuration, scaled to a horizon.
func DefaultDTGMConfig(horizon int) DTGMConfig {
	return DTGMConfig{
		Window: 24, Horizon: horizon, Hidden: 48, Layers: 2, Hops: 2,
		Epochs: 24, Batch: 16, LR: 1e-3, Dropout: 0.3, UseGCN: true,
		SlotPeriod: 144, Seed: 71,
	}
}

// dtgmLayer is one block of Fig 5: gated TCN followed by a GCN "pooling"
// layer, with a residual connection and a skip tap.
type dtgmLayer struct {
	filter *nn.CausalConv1D
	gate   *nn.CausalConv1D
	gcn    []*nn.ChannelLinear // one 1×1 map per adjacency power, W_k
	skip   *nn.ChannelLinear
}

// DTGM is the Deep Temporal Graph Model (paper §IV-A2): stacked layers of
// gated temporal convolutions (TCN) encoding the rate history, interleaved
// with graph convolutions (GCN) encoding table-access relationships, with
// residual and skip connections and an MAE training objective.
type DTGM struct {
	cfg DTGMConfig
	adj [][]float64 // row-normalised Â = D⁻¹(A+I) over the hot tables

	input  *nn.ChannelLinear
	layers []*dtgmLayer
	head1  *nn.Linear
	head2  *nn.Linear

	mean, std []float64
	rng       *rand.Rand
	nextSlot  int
}

// NewDTGM builds the model over the given table-access adjacency matrix
// (co-occurrence of tables in analytical queries, as produced by
// workload.AccessGraph).
func NewDTGM(adjacency [][]float64, cfg DTGMConfig) *DTGM {
	if cfg.Window <= 0 {
		cfg = DefaultDTGMConfig(cfg.Horizon)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &DTGM{cfg: cfg, adj: rowNormalize(adjacency), rng: rng}
	d.input = nn.NewChannelLinear(rng, d.inChannels(), cfg.Hidden)
	dilation := 1
	for l := 0; l < cfg.Layers; l++ {
		layer := &dtgmLayer{
			filter: nn.NewCausalConv1D(rng, cfg.Hidden, cfg.Hidden, 2, dilation),
			gate:   nn.NewCausalConv1D(rng, cfg.Hidden, cfg.Hidden, 2, dilation),
			skip:   nn.NewChannelLinear(rng, cfg.Hidden, cfg.Hidden),
		}
		if cfg.UseGCN {
			for k := 0; k <= cfg.Hops; k++ {
				layer.gcn = append(layer.gcn, nn.NewChannelLinear(rng, cfg.Hidden, cfg.Hidden))
			}
		}
		d.layers = append(d.layers, layer)
		dilation *= 2
	}
	d.head1 = nn.NewLinear(rng, cfg.Hidden, cfg.Hidden)
	d.head2 = nn.NewLinear(rng, cfg.Hidden, cfg.Horizon)
	return d
}

// inChannels returns the input channel count: the rate plus, when a slot
// period is configured, sin/cos time-of-cycle features.
func (d *DTGM) inChannels() int {
	if d.cfg.SlotPeriod > 0 {
		return 3
	}
	return 1
}

// Name implements Predictor.
func (d *DTGM) Name() string {
	if !d.cfg.UseGCN {
		return "DTGM w/o gcn"
	}
	return "DTGM"
}

// Params returns every trainable parameter.
func (d *DTGM) Params() []*nn.Tensor {
	params := d.input.Params()
	for _, l := range d.layers {
		params = append(params, l.filter.Params()...)
		params = append(params, l.gate.Params()...)
		params = append(params, l.skip.Params()...)
		for _, g := range l.gcn {
			params = append(params, g.Params()...)
		}
	}
	params = append(params, d.head1.Params()...)
	params = append(params, d.head2.Params()...)
	return params
}

// forward maps a z-scored input [B·N, 1, W] to forecasts [B·N, Horizon].
// train enables dropout.
func (d *DTGM) forward(x *nn.Tensor, train bool) *nn.Tensor {
	var drop interface{ Float64() float64 }
	if train {
		drop = d.rng
	}
	h := d.input.Apply(x)
	var skip *nn.Tensor
	for _, l := range d.layers {
		residual := h
		// Gated TCN: tanh(Θ₁*h) ⊙ σ(Θ₂*h).
		z := nn.Mul(nn.Tanh(l.filter.Apply(h)), nn.Sigmoid(l.gate.Apply(h)))
		z = nn.Dropout(z, d.cfg.Dropout, drop)
		// GCN pooling: Σ_k Âᵏ z W_k (K=Hops), applied when enabled.
		if len(l.gcn) > 0 {
			sum := l.gcn[0].Apply(z) // k=0 term: identity propagation
			prop := z
			for k := 1; k < len(l.gcn); k++ {
				prop = nn.GraphProp(prop, d.adj)
				sum = nn.Add(sum, l.gcn[k].Apply(prop))
			}
			z = sum
		}
		// Skip tap and residual connection.
		s := l.skip.Apply(z)
		if skip == nil {
			skip = s
		} else {
			skip = nn.Add(skip, s)
		}
		h = nn.Add(z, residual)
	}
	// Head: ReLU MLP over the final timestep's skip features.
	feat := nn.ReLU(nn.SliceLast(skip, -1)) // [B·N, Hidden]
	return d.head2.Apply(nn.ReLU(d.head1.Apply(feat)))
}

// Fit implements Predictor: windows of length Window predict the next
// Horizon slots, trained with MAE and the paper's LR schedule.
func (d *DTGM) Fit(history [][]float64) error {
	n := 0
	if len(history) > 0 {
		n = len(history[0])
	}
	if n != len(d.adj) {
		// The adjacency must cover exactly the hot tables in the series.
		return fmt.Errorf("predictor: series has %d tables, adjacency covers %d", n, len(d.adj))
	}
	d.mean, d.std = columnStats(history)

	w, hz := d.cfg.Window, d.cfg.Horizon
	var starts []int
	for t := w; t+hz <= len(history); t++ {
		starts = append(starts, t)
	}
	if len(starts) == 0 {
		return nil
	}

	d.nextSlot = len(history)
	opt := nn.NewAdam(d.Params(), d.cfg.LR)
	for ep := 0; ep < d.cfg.Epochs; ep++ {
		if ep > 0 && ep%20 == 0 {
			opt.DecayLR(0.1)
		}
		d.rng.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
		for off := 0; off < len(starts); off += d.cfg.Batch {
			end := off + d.cfg.Batch
			if end > len(starts) {
				end = len(starts)
			}
			batch := starts[off:end]
			x, y := d.pack(history, batch, 0)
			loss := nn.MAE(d.forward(x, true), y)
			loss.Backward()
			opt.Step()
		}
	}
	return nil
}

// pack assembles a batch of windows into [B·N, C, W] inputs and
// [B·N, Horizon] targets, z-scored per table. `at` indexes the first
// forecast slot of each window; atBase is added to convert it into the
// absolute slot used by the time-of-cycle features.
func (d *DTGM) pack(history [][]float64, starts []int, atBase int) (x, y *nn.Tensor) {
	n := len(d.adj)
	w, hz, ch := d.cfg.Window, d.cfg.Horizon, d.inChannels()
	xd := make([]float64, len(starts)*n*ch*w)
	yd := make([]float64, len(starts)*n*hz)
	for b, at := range starts {
		for j := 0; j < n; j++ {
			row := b*n + j
			for t := 0; t < w; t++ {
				xd[(row*ch)*w+t] = (history[at-w+t][j] - d.mean[j]) / d.std[j]
				if ch == 3 {
					tod := 2 * math.Pi * float64(atBase+at-w+t) / float64(d.cfg.SlotPeriod)
					xd[(row*ch+1)*w+t] = math.Sin(tod)
					xd[(row*ch+2)*w+t] = math.Cos(tod)
				}
			}
			for t := 0; t < hz; t++ {
				yd[row*hz+t] = (history[at+t][j] - d.mean[j]) / d.std[j]
			}
		}
	}
	return nn.NewTensor(xd, len(starts)*n, ch, w), nn.NewTensor(yd, len(starts)*n, hz)
}

// Predict implements Predictor.
func (d *DTGM) Predict(recent [][]float64, horizon int) [][]float64 {
	n := len(d.adj)
	w, ch := d.cfg.Window, d.inChannels()
	if d.mean == nil {
		d.mean = make([]float64, n)
		d.std = make([]float64, n)
		for j := range d.std {
			d.std[j] = 1
		}
	}
	xd := make([]float64, n*ch*w)
	for j := 0; j < n; j++ {
		for t := 0; t < w; t++ {
			at := len(recent) - w + t
			v := 0.0
			if at >= 0 && j < len(recent[at]) {
				v = recent[at][j]
			}
			xd[(j*ch)*w+t] = (v - d.mean[j]) / d.std[j]
			if ch == 3 {
				tod := 2 * math.Pi * float64(d.nextSlot-w+t) / float64(d.cfg.SlotPeriod)
				xd[(j*ch+1)*w+t] = math.Sin(tod)
				xd[(j*ch+2)*w+t] = math.Cos(tod)
			}
		}
	}
	pred := d.forward(nn.NewTensor(xd, n, ch, w), false)
	d.nextSlot += horizon

	if horizon > d.cfg.Horizon {
		horizon = d.cfg.Horizon
	}
	out := make([][]float64, horizon)
	for s := range out {
		out[s] = make([]float64, n)
		for j := 0; j < n; j++ {
			v := pred.Data[j*d.cfg.Horizon+s]*d.std[j] + d.mean[j]
			if v < 0 {
				v = 0
			}
			out[s][j] = v
		}
	}
	return out
}

// rowNormalize returns D⁻¹(A+I) with self-loops added.
func rowNormalize(a [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		copy(out[i], a[i])
		if out[i][i] == 0 {
			out[i][i] = 1
		}
		sum := 0.0
		for _, v := range out[i] {
			sum += v
		}
		if sum > 0 {
			for j := range out[i] {
				out[i][j] /= sum
			}
		}
	}
	return out
}
