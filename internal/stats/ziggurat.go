package stats

// Ziggurat fast paths for the two distributions the discrete-event
// queueing kernel draws per request: exponential inter-arrival gaps and
// the normal behind log-normal service times.
//
// The reference samplers (Exp, Normal, LogNormal) pay one or more
// transcendental calls per draw: Exp computes a logarithm, Normal runs
// Box–Muller (log, sqrt, cos). The ziggurat method (Marsaglia & Tsang,
// 2000) covers the density with a stack of equal-area rectangles so
// that the common case — a point landing inside a rectangle's core —
// needs one 64-bit draw, one table compare, and one multiply. Only the
// rare wedge/tail cases (a few percent of draws) fall back to
// transcendentals.
//
// The fast samplers draw a *different* random sequence than the
// reference ones, so results are statistically equivalent but not
// bit-identical. Callers that need bit-compatibility with the reference
// stream keep using Exp/Normal: the queueing simulator always draws
// through the fast paths, and its test-only oracle (internal/oracle)
// keeps the reference samplers to compare against. The KS-distance
// tests in this package prove the two sample the same distributions.
//
// Tables are built once at init from the published tail roots and strip
// areas rather than embedded as opaque constants, and an init check
// verifies the construction produced a strictly decreasing layer stack.

import "math"

const (
	// Normal ziggurat: 128 equal-area layers. zigNormR is the base
	// strip's tail cutoff, zigNormV the per-layer area (Marsaglia &
	// Tsang's published values for n=128).
	zigNormLayers = 128
	zigNormR      = 3.442619855899
	zigNormV      = 9.91256303526217e-3

	// Exponential ziggurat: 256 equal-area layers.
	zigExpLayers = 256
	zigExpR      = 7.69711747013104972
	zigExpV      = 3.9496598225815571993e-3
)

var (
	zigNormX     [zigNormLayers + 1]float64
	zigNormRatio [zigNormLayers]float64
	zigExpX      [zigExpLayers + 1]float64
	zigExpRatio  [zigExpLayers]float64
)

func init() {
	// Layer edges from the equal-area recurrence
	// f(x[i+1]) = f(x[i]) + v/x[i], with x[1] = R and x[0] = v/f(R)
	// standing in for the base strip (rectangle plus tail).
	fn := math.Exp(-0.5 * zigNormR * zigNormR)
	zigNormX[0] = zigNormV / fn
	zigNormX[1] = zigNormR
	for i := 2; i < zigNormLayers; i++ {
		prev := zigNormX[i-1]
		zigNormX[i] = math.Sqrt(-2 * math.Log(zigNormV/prev+math.Exp(-0.5*prev*prev)))
	}
	zigNormX[zigNormLayers] = 0
	for i := 0; i < zigNormLayers; i++ {
		zigNormRatio[i] = zigNormX[i+1] / zigNormX[i]
	}

	fe := math.Exp(-zigExpR)
	zigExpX[0] = zigExpV / fe
	zigExpX[1] = zigExpR
	for i := 2; i < zigExpLayers; i++ {
		prev := zigExpX[i-1]
		zigExpX[i] = -math.Log(zigExpV/prev + math.Exp(-prev))
	}
	zigExpX[zigExpLayers] = 0
	for i := 0; i < zigExpLayers; i++ {
		zigExpRatio[i] = zigExpX[i+1] / zigExpX[i]
	}

	for i := 1; i <= zigNormLayers; i++ {
		if !(zigNormX[i] < zigNormX[i-1]) {
			panic("stats: normal ziggurat table not strictly decreasing")
		}
	}
	for i := 1; i <= zigExpLayers; i++ {
		if !(zigExpX[i] < zigExpX[i-1]) {
			panic("stats: exponential ziggurat table not strictly decreasing")
		}
	}
}

// fastExpUnit returns an Exp(1) draw via the ziggurat. The common case
// — a point inside a layer's rectangular core — is a single 64-bit
// draw, one compare, and one multiply; everything rarer lives in
// fastExpSlow so this body stays inlinable and the batch fillers can
// replicate it without a call per draw. The draw sequence is identical
// to the original single-loop implementation.
func (r *RNG) fastExpUnit() float64 {
	z := r.Uint64()
	// Low 8 bits pick the layer, top 53 the position: disjoint
	// bit ranges of one draw.
	i := int(z & (zigExpLayers - 1))
	u := float64(z>>11) / (1 << 53) // [0, 1)
	x := u * zigExpX[i]
	if u < zigExpRatio[i] {
		return x // inside the layer's rectangular core
	}
	return r.fastExpSlow(i, x)
}

// fastExpSlow resolves a draw that missed layer i's rectangular core:
// tail, wedge, and — on wedge rejection — the full redraw loop, in the
// exact order of the pre-split sampler.
func (r *RNG) fastExpSlow(i int, x float64) float64 {
	for {
		if i == 0 {
			// Tail beyond R: memoryless, so R + Exp(1) via the
			// reference sampler (rare: ~v*e^R of the mass).
			return zigExpR + r.Exp(1)
		}
		// Wedge: accept against the true density, normalised to f(x).
		f0 := math.Exp(x - zigExpX[i])   // f(X[i])/f(x) <= 1
		f1 := math.Exp(x - zigExpX[i+1]) // f(X[i+1])/f(x) >= 1
		if f0+r.Float64()*(f1-f0) < 1 {
			return x
		}
		z := r.Uint64()
		i = int(z & (zigExpLayers - 1))
		u := float64(z>>11) / (1 << 53)
		x = u * zigExpX[i]
		if u < zigExpRatio[i] {
			return x
		}
	}
}

// fastNormUnit returns a standard normal draw via the ziggurat, split
// like fastExpUnit: inlinable core case, fastNormSlow for the rest.
func (r *RNG) fastNormUnit() float64 {
	z := r.Uint64()
	i := int(z & (zigNormLayers - 1))
	u := float64(z>>11)/(1<<52) - 1 // [-1, 1)
	x := u * zigNormX[i]
	if math.Abs(u) < zigNormRatio[i] {
		return x
	}
	return r.fastNormSlow(i, u, x)
}

// fastNormSlow resolves a normal draw that missed layer i's core.
func (r *RNG) fastNormSlow(i int, u, x float64) float64 {
	for {
		if i == 0 {
			return r.normTail(u < 0)
		}
		xa := x * x
		f0 := math.Exp(-0.5 * (zigNormX[i]*zigNormX[i] - xa))
		f1 := math.Exp(-0.5 * (zigNormX[i+1]*zigNormX[i+1] - xa))
		if f0+r.Float64()*(f1-f0) < 1 {
			return x
		}
		z := r.Uint64()
		i = int(z & (zigNormLayers - 1))
		u = float64(z>>11)/(1<<52) - 1
		x = u * zigNormX[i]
		if math.Abs(u) < zigNormRatio[i] {
			return x
		}
	}
}

// normTail samples the normal tail beyond zigNormR (Marsaglia's
// exact-tail method).
func (r *RNG) normTail(negative bool) float64 {
	for {
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		u2 := r.Float64()
		for u2 == 0 {
			u2 = r.Float64()
		}
		x := -math.Log(u1) / zigNormR
		y := -math.Log(u2)
		if y+y >= x*x {
			if negative {
				return -(zigNormR + x)
			}
			return zigNormR + x
		}
	}
}

// FastExp returns an exponentially distributed value with the given
// mean using the ziggurat fast path. Statistically equivalent to Exp
// (proven by the KS tests in this package) but a different, incompatible
// draw sequence.
func (r *RNG) FastExp(mean float64) float64 { return mean * r.fastExpUnit() }

// FastNormal returns a normally distributed value via the ziggurat.
// Statistically equivalent to Normal but a different draw sequence.
func (r *RNG) FastNormal(mean, stddev float64) float64 {
	return mean + stddev*r.fastNormUnit()
}

// FastLogNormal returns a log-normally distributed value parameterised
// by the mean and stddev of the underlying normal, via the ziggurat.
func (r *RNG) FastLogNormal(mu, sigma float64) float64 {
	return LogNormalAt(mu, sigma, r.fastNormUnit())
}

// LogNormalAt maps a standard normal draw y to the log-normal value
// exp(mu + sigma*y). Every fast log-normal draw in this package goes
// through it, so a caller that keeps the normals (see FillExpNormal)
// and exponentiates them later gets the fillers' values bit for bit.
func LogNormalAt(mu, sigma, y float64) float64 { return math.Exp(mu + sigma*y) }

// FillExp fills dst with exponential draws of the given mean — the
// batched form of FastExp for bulk consumers (sample pre-generation,
// statistical tests).
func (r *RNG) FillExp(dst []float64, mean float64) {
	for i := range dst {
		dst[i] = mean * r.fastExpUnit()
	}
}

// FillNormal fills dst with normal draws — the batched form of
// FastNormal.
func (r *RNG) FillNormal(dst []float64, mean, stddev float64) {
	for i := range dst {
		dst[i] = mean + stddev*r.fastNormUnit()
	}
}

// The pair fillers below feed the batched queueing event loop. The
// scalar loop draws (arrival gap, service time) alternately per
// request, and the ziggurat consumes a *variable* number of 64-bit
// draws per sample, so filling all gaps and then all services would
// permute the stream and change every result. These fillers interleave
// the two draws per index in exactly the scalar order, keeping the
// batched kernel bit-identical to the scalar one. The common ziggurat
// case is written out inline; misses call the shared slow paths.

// FillExpNormal fills gaps[i] with Exp(1) draws and norms[i] with
// standard normal draws, interleaved per index in FillExpLogNormal's
// exact word order. These are the draws that depend on the seed alone:
// FillExpLogNormal(gaps, meanIA, svc, mu, sigma) is this fill followed
// by gaps[i]*meanIA and svc[i] = LogNormalAt(mu, sigma, norms[i]), so
// one fill serves every (meanIA, mu, sigma) on the same stream.
func (r *RNG) FillExpNormal(gaps, norms []float64) {
	n := len(gaps)
	if len(norms) < n {
		n = len(norms)
	}
	for k := 0; k < n; k++ {
		z := r.Uint64()
		i := int(z & (zigExpLayers - 1))
		u := float64(z>>11) / (1 << 53)
		x := u * zigExpX[i]
		if u >= zigExpRatio[i] {
			x = r.fastExpSlow(i, x)
		}
		gaps[k] = x

		z = r.Uint64()
		j := int(z & (zigNormLayers - 1))
		v := float64(z>>11)/(1<<52) - 1
		y := v * zigNormX[j]
		if math.Abs(v) >= zigNormRatio[j] {
			y = r.fastNormSlow(j, v, y)
		}
		norms[k] = y
	}
}

// FillExpLogNormal fills gaps[i] with Exp(meanIA) draws and svc[i]
// with LogNormal(mu, sigma) draws, interleaved per index in the exact
// draw order of alternating FastExp / FastLogNormal calls. It is
// FillExpNormal rescaled in place.
func (r *RNG) FillExpLogNormal(gaps []float64, meanIA float64, svc []float64, mu, sigma float64) {
	r.FillExpNormal(gaps, svc)
	for k := range min(len(gaps), len(svc)) {
		gaps[k] = meanIA * gaps[k]
		svc[k] = LogNormalAt(mu, sigma, svc[k])
	}
}

// FillExpExp fills gaps[i] with Exp(meanIA) draws and svc[i] with
// Exp(meanSvc) draws, interleaved per index in the exact draw order of
// alternating FastExp calls.
func (r *RNG) FillExpExp(gaps []float64, meanIA float64, svc []float64, meanSvc float64) {
	n := len(gaps)
	if len(svc) < n {
		n = len(svc)
	}
	for k := 0; k < n; k++ {
		z := r.Uint64()
		i := int(z & (zigExpLayers - 1))
		u := float64(z>>11) / (1 << 53)
		x := u * zigExpX[i]
		if u >= zigExpRatio[i] {
			x = r.fastExpSlow(i, x)
		}
		gaps[k] = meanIA * x

		z = r.Uint64()
		i = int(z & (zigExpLayers - 1))
		u = float64(z>>11) / (1 << 53)
		x = u * zigExpX[i]
		if u >= zigExpRatio[i] {
			x = r.fastExpSlow(i, x)
		}
		svc[k] = meanSvc * x
	}
}
