package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// ExpStage is one phase of a phase-type exponential: weight W, mean Theta,
// offset s (thesis §5.1: f(x) = sum w_i exp(theta_i, x - s_i)).
type ExpStage struct {
	W, Theta, Offset float64
}

// PhaseTypeExp is a finite mixture of shifted exponentials.
type PhaseTypeExp struct {
	stages []ExpStage
	cumW   []float64 // prefix sums of stage weights, for O(#stages) selection
	mean   float64
}

// NewPhaseTypeExp builds the mixture. Weights must be positive and sum to 1
// (within 1e-6), means positive, offsets non-negative.
func NewPhaseTypeExp(stages []ExpStage) (*PhaseTypeExp, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: phase-type exponential needs at least one stage", ErrDist)
	}
	p := &PhaseTypeExp{
		stages: append([]ExpStage(nil), stages...),
		cumW:   make([]float64, len(stages)),
	}
	var wsum float64
	for i, s := range p.stages {
		if !(s.W > 0) || !(s.Theta > 0) || s.Offset < 0 ||
			math.IsInf(s.Theta, 0) || math.IsInf(s.Offset, 0) {
			return nil, fmt.Errorf("%w: exp stage %d {w=%v theta=%v offset=%v}", ErrDist, i, s.W, s.Theta, s.Offset)
		}
		wsum += s.W
		p.cumW[i] = wsum
		p.mean += s.W * (s.Offset + s.Theta)
	}
	if math.Abs(wsum-1) > 1e-6 {
		return nil, fmt.Errorf("%w: exp stage weights sum to %v, want 1", ErrDist, wsum)
	}
	p.cumW[len(p.cumW)-1] = 1 // absorb rounding so selection never falls off the end
	return p, nil
}

// Stages returns a copy of the stage parameters.
func (p *PhaseTypeExp) Stages() []ExpStage { return append([]ExpStage(nil), p.stages...) }

// Sample picks a stage by weight and draws its shifted exponential.
func (p *PhaseTypeExp) Sample(r *rand.Rand) float64 {
	s := &p.stages[p.pick(r)]
	return s.Offset + s.Theta*r.ExpFloat64()
}

func (p *PhaseTypeExp) pick(r *rand.Rand) int {
	u := r.Float64()
	for i, c := range p.cumW {
		if u < c {
			return i
		}
	}
	return len(p.cumW) - 1
}

// Mean returns sum w_i (offset_i + theta_i).
func (p *PhaseTypeExp) Mean() float64 { return p.mean }

// PDF evaluates the mixture density.
func (p *PhaseTypeExp) PDF(x float64) float64 {
	var f float64
	for i := range p.stages {
		s := &p.stages[i]
		if y := x - s.Offset; y >= 0 {
			f += s.W * math.Exp(-y/s.Theta) / s.Theta
		}
	}
	return f
}

// CDF evaluates the mixture cumulative distribution.
func (p *PhaseTypeExp) CDF(x float64) float64 {
	var f float64
	for i := range p.stages {
		s := &p.stages[i]
		if y := x - s.Offset; y > 0 {
			f += s.W * -math.Expm1(-y/s.Theta)
		}
	}
	return f
}

// GammaStage is one stage of a multi-stage gamma: weight W, shape Alpha,
// scale Theta, offset (thesis §5.1: f(x) = sum w_i g(alpha_i, theta_i, x - s_i)).
type GammaStage struct {
	W, Alpha, Theta, Offset float64
}

// MultiStageGamma is a finite mixture of shifted gamma distributions.
type MultiStageGamma struct {
	stages []GammaStage
	cumW   []float64
	// lognorm caches log of each stage's density normalization constant
	// (lgamma(alpha) + alpha log(theta)).
	lognorm []float64
	mean    float64
}

// NewMultiStageGamma builds the mixture. Weights must be positive and sum
// to 1 (within 1e-6), shapes and scales positive, offsets non-negative.
func NewMultiStageGamma(stages []GammaStage) (*MultiStageGamma, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: multi-stage gamma needs at least one stage", ErrDist)
	}
	g := &MultiStageGamma{
		stages:  append([]GammaStage(nil), stages...),
		cumW:    make([]float64, len(stages)),
		lognorm: make([]float64, len(stages)),
	}
	var wsum float64
	for i, s := range g.stages {
		if !(s.W > 0) || !(s.Alpha > 0) || !(s.Theta > 0) || s.Offset < 0 ||
			math.IsInf(s.Alpha, 0) || math.IsInf(s.Theta, 0) || math.IsInf(s.Offset, 0) {
			return nil, fmt.Errorf("%w: gamma stage %d {w=%v alpha=%v theta=%v offset=%v}", ErrDist, i, s.W, s.Alpha, s.Theta, s.Offset)
		}
		wsum += s.W
		g.cumW[i] = wsum
		lg, _ := math.Lgamma(s.Alpha)
		g.lognorm[i] = lg + s.Alpha*math.Log(s.Theta)
		g.mean += s.W * (s.Offset + s.Alpha*s.Theta)
	}
	if math.Abs(wsum-1) > 1e-6 {
		return nil, fmt.Errorf("%w: gamma stage weights sum to %v, want 1", ErrDist, wsum)
	}
	g.cumW[len(g.cumW)-1] = 1
	return g, nil
}

// Stages returns a copy of the stage parameters.
func (g *MultiStageGamma) Stages() []GammaStage { return append([]GammaStage(nil), g.stages...) }

// Sample picks a stage by weight and draws its shifted gamma.
func (g *MultiStageGamma) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	i := len(g.cumW) - 1
	for j, c := range g.cumW {
		if u < c {
			i = j
			break
		}
	}
	s := &g.stages[i]
	return s.Offset + s.Theta*sampleGamma(r, s.Alpha)
}

// Mean returns sum w_i (offset_i + alpha_i theta_i).
func (g *MultiStageGamma) Mean() float64 { return g.mean }

// PDF evaluates the mixture density.
func (g *MultiStageGamma) PDF(x float64) float64 {
	var f float64
	for i := range g.stages {
		s := &g.stages[i]
		y := x - s.Offset
		if y <= 0 {
			continue
		}
		f += s.W * math.Exp((s.Alpha-1)*math.Log(y)-y/s.Theta-g.lognorm[i])
	}
	return f
}

// CDF evaluates the mixture cumulative distribution via the regularized
// lower incomplete gamma function.
func (g *MultiStageGamma) CDF(x float64) float64 {
	var f float64
	for i := range g.stages {
		s := &g.stages[i]
		if y := x - s.Offset; y > 0 {
			p, _ := RegIncGamma(s.Alpha, y/s.Theta)
			f += s.W * p
		}
	}
	return f
}

// sampleGamma draws a unit-scale gamma variate with shape alpha using
// Marsaglia & Tsang's squeeze method, boosted for alpha < 1. It allocates
// nothing.
func sampleGamma(r *rand.Rand, alpha float64) float64 {
	boost := 1.0
	if alpha < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		boost = math.Pow(u, 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v
		}
	}
}

// RegIncGamma returns the regularized incomplete gamma functions P(a, x)
// (lower) and Q(a, x) = 1 - P(a, x) (upper), computed by series expansion
// for x < a+1 and by Lentz's continued fraction for Q otherwise (Numerical
// Recipes §6.2); whichever the method computes is exact, the other is its
// complement. Outside the domain (x <= 0 or a <= 0) it returns (0, 1).
func RegIncGamma(a, x float64) (p, q float64) {
	if x <= 0 || a <= 0 {
		return 0, 1
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a(a+1)...(a+n)).
		ap := a
		sum := 1 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-14 {
				break
			}
		}
		p = sum * math.Exp(-x+a*math.Log(x)-lg)
		return p, 1 - p
	}
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	q = math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q, q
}
