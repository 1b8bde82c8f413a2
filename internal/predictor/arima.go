package predictor

// ARIMA is the classical autoregressive integrated moving-average baseline
// (paper §VI-G, [34]). One model is fitted per table. Estimation follows
// the Hannan–Rissanen two-stage procedure: a long autoregression first
// yields innovation estimates, then the ARMA(p,q) coefficients are fitted
// by least squares on lagged values and lagged innovations. Forecasts are
// produced iteratively on the d-times differenced series and integrated
// back.
type ARIMA struct {
	P, D, Q int

	// per-table fitted state
	ar  [][]float64 // AR coefficients φ_1..φ_p (per table)
	ma  [][]float64 // MA coefficients θ_1..θ_q (per table)
	mu  []float64   // mean of the differenced series (per table)
	fit bool
}

// NewARIMA returns an ARIMA(3,1,1) predictor, a common default for
// short-range rate series.
func NewARIMA() *ARIMA { return &ARIMA{P: 3, D: 1, Q: 1} }

// Name implements Predictor.
func (a *ARIMA) Name() string { return "ARIMA" }

// Fit implements Predictor.
func (a *ARIMA) Fit(history [][]float64) error {
	cols := transpose(history)
	a.ar = make([][]float64, len(cols))
	a.ma = make([][]float64, len(cols))
	a.mu = make([]float64, len(cols))
	for j, series := range cols {
		d := difference(series, a.D)
		mu, _ := meanStd(d)
		a.mu[j] = mu
		centered := make([]float64, len(d))
		for i := range d {
			centered[i] = d[i] - mu
		}
		ar, ma := hannanRissanen(centered, a.P, a.Q)
		a.ar[j], a.ma[j] = ar, ma
	}
	a.fit = true
	return nil
}

// Predict implements Predictor.
func (a *ARIMA) Predict(recent [][]float64, horizon int) [][]float64 {
	tables := 0
	if len(recent) > 0 {
		tables = len(recent[0])
	}
	out := make([][]float64, horizon)
	for s := range out {
		out[s] = make([]float64, tables)
	}
	for j := 0; j < tables; j++ {
		series := column(recent, j)
		var ar, ma []float64
		var mu float64
		if a.fit && j < len(a.ar) {
			ar, ma, mu = a.ar[j], a.ma[j], a.mu[j]
		}
		fc := a.forecastOne(series, ar, ma, mu, horizon)
		for s := 0; s < horizon; s++ {
			out[s][j] = fc[s]
		}
	}
	return out
}

func (a *ARIMA) forecastOne(series, ar, ma []float64, mu float64, horizon int) []float64 {
	d := difference(series, a.D)
	centered := make([]float64, len(d))
	for i := range d {
		centered[i] = d[i] - mu
	}
	// Reconstruct trailing innovations with the fitted model.
	resid := residuals(centered, ar, ma)

	fc := make([]float64, horizon)
	hist := append([]float64(nil), centered...)
	for s := 0; s < horizon; s++ {
		pred := 0.0
		for i, phi := range ar {
			if k := len(hist) - 1 - i; k >= 0 {
				pred += phi * hist[k]
			}
		}
		for i, theta := range ma {
			if k := len(resid) - 1 - i; k >= 0 {
				pred += theta * resid[k]
			}
		}
		hist = append(hist, pred)
		resid = append(resid, 0) // expected future innovation is zero
		fc[s] = pred + mu
	}
	// Integrate d times back to the level domain.
	return integrate(series, fc, a.D)
}

// difference applies d-th order differencing.
func difference(series []float64, d int) []float64 {
	out := append([]float64(nil), series...)
	for k := 0; k < d; k++ {
		if len(out) <= 1 {
			return []float64{0}
		}
		next := make([]float64, len(out)-1)
		for i := 1; i < len(out); i++ {
			next[i-1] = out[i] - out[i-1]
		}
		out = next
	}
	return out
}

// integrate undoes d-th order differencing of the forecast fc, anchored at
// the tail of the original level series.
func integrate(series, fc []float64, d int) []float64 {
	if d == 0 {
		return fc
	}
	// Build the ladder of last values of each differencing level.
	lasts := make([]float64, d+1)
	cur := append([]float64(nil), series...)
	for k := 0; k <= d; k++ {
		if len(cur) == 0 {
			lasts[k] = 0
		} else {
			lasts[k] = cur[len(cur)-1]
		}
		if k < d {
			next := make([]float64, maxInt(len(cur)-1, 0))
			for i := 1; i < len(cur); i++ {
				next[i-1] = cur[i] - cur[i-1]
			}
			cur = next
		}
	}
	out := make([]float64, len(fc))
	for s := range fc {
		v := fc[s]
		// Cascade the cumulative sums from the most-differenced level up.
		for k := d - 1; k >= 0; k-- {
			v = lasts[k] + v
			lasts[k] = v
		}
		out[s] = v
		if v < 0 {
			out[s] = 0 // access rates cannot be negative
		}
	}
	return out
}

// hannanRissanen estimates ARMA(p,q) coefficients on a centred series.
// The stage-2 regression of x_t on its own lags and lagged innovations is
// near-collinear (the innovations are linear in the lags), so the result
// can be an explosive model; when the fitted AR part is non-stationary the
// estimator falls back to a pure AR(p) fit, which is always well-behaved
// under ridge regularisation.
func hannanRissanen(x []float64, p, q int) (ar, ma []float64) {
	if len(x) < p+q+10 {
		return make([]float64, p), make([]float64, q)
	}
	lambda := ridgeFor(x)
	// Stage 1: long AR to estimate innovations.
	long := p + q + 3
	phi := fitAR(x, long, lambda)
	eps := make([]float64, len(x))
	for t := long; t < len(x); t++ {
		pred := 0.0
		for i, c := range phi {
			pred += c * x[t-1-i]
		}
		eps[t] = x[t] - pred
	}
	// Stage 2: regress x_t on p lags of x and q lags of eps.
	start := long + q
	var rows [][]float64
	var ys []float64
	for t := start; t < len(x); t++ {
		row := make([]float64, p+q)
		for i := 0; i < p; i++ {
			row[i] = x[t-1-i]
		}
		for i := 0; i < q; i++ {
			row[p+i] = eps[t-1-i]
		}
		rows = append(rows, row)
		ys = append(ys, x[t])
	}
	beta := solveRidge(rows, ys, lambda)
	if beta != nil && stationaryAR(beta[:p]) {
		return beta[:p], beta[p:]
	}
	return fitAR(x, p, lambda), make([]float64, q)
}

// fitAR fits an AR(p) by ridge OLS.
func fitAR(x []float64, p int, lambda float64) []float64 {
	var rows [][]float64
	var ys []float64
	for t := p; t < len(x); t++ {
		row := make([]float64, p)
		for i := 0; i < p; i++ {
			row[i] = x[t-1-i]
		}
		rows = append(rows, row)
		ys = append(ys, x[t])
	}
	beta := solveRidge(rows, ys, lambda)
	if beta == nil {
		return make([]float64, p)
	}
	if !stationaryAR(beta) {
		// Shrink towards zero until stable; an over-damped forecast is
		// strictly better than a divergent one.
		for f := 0.9; f > 0.05; f *= 0.8 {
			for i := range beta {
				beta[i] *= f
			}
			if stationaryAR(beta) {
				break
			}
		}
	}
	return beta
}

// ridgeFor scales the ridge penalty to the series variance so the solver
// behaves identically at any rate magnitude.
func ridgeFor(x []float64) float64 {
	_, std := meanStd(x)
	return 1e-3 * std * std * float64(len(x))
}

// stationaryAR reports whether the AR recursion with the given
// coefficients is stable, by driving the homogeneous recursion from a unit
// impulse and watching for growth.
func stationaryAR(phi []float64) bool {
	state := make([]float64, len(phi))
	if len(state) == 0 {
		return true
	}
	state[0] = 1
	mag := 1.0
	for step := 0; step < 200; step++ {
		next := 0.0
		for i, c := range phi {
			next += c * state[i]
		}
		copy(state[1:], state[:len(state)-1])
		state[0] = next
		if next > mag {
			mag = next
		}
		if mag > 100 {
			return false
		}
	}
	return true
}

// residuals reconstructs the one-step innovations of a fitted ARMA model
// over x.
func residuals(x, ar, ma []float64) []float64 {
	eps := make([]float64, len(x))
	for t := range x {
		pred := 0.0
		for i, phi := range ar {
			if t-1-i >= 0 {
				pred += phi * x[t-1-i]
			}
		}
		for i, theta := range ma {
			if t-1-i >= 0 {
				pred += theta * eps[t-1-i]
			}
		}
		eps[t] = x[t] - pred
	}
	return eps
}
