package rng

import "math"

// Binomial returns a Binomial(n, p) variate: the number of successes in n
// independent trials that each succeed with probability p. It is exact, not
// a normal or Poisson approximation, so a count split with it (the GNM
// generator's cells) keeps the multinomial distribution. Means below 10 use
// inversion; larger ones use Hörmann's BTRD, a transformed rejection whose
// expected cost does not grow with n ("The generation of binomial random
// variates", J. Statist. Comput. Simul. 46, 1993).
func (r *RNG) Binomial(n uint64, p float64) uint64 {
	switch {
	case n == 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - r.Binomial(n, 1-p)
	case float64(n)*p < 10:
		return r.binomialInversion(n, p)
	}
	return r.btrd(n, p)
}

// binomialInversion walks the cumulative distribution from 0, updating the
// pmf by its ratio f(k)/f(k-1) = (n+1)s/k − s with s = p/(1−p). A uniform
// that rounding leaves beyond the last representable mass is drawn again.
func (r *RNG) binomialInversion(n uint64, p float64) uint64 {
	s := p / (1 - p)
	a := float64(n+1) * s
	f0 := math.Exp(float64(n) * math.Log1p(-p)) // (1−p)^n
	for {
		u, f := r.Float64(), f0
		for k := uint64(0); k <= n && f > 0; k++ {
			if u < f {
				return k
			}
			u -= f
			f *= a/float64(k+1) - s
		}
	}
}

// btrd is Hörmann's algorithm BTRD for p ≤ 1/2 and np ≥ 10; the step names
// follow the paper.
func (r *RNG) btrd(n uint64, p float64) uint64 {
	nf := float64(n)
	q := 1 - p
	m := math.Floor((nf + 1) * p)
	s := p / q
	nr := (nf + 1) * s
	npq := nf * p * q
	sq := math.Sqrt(npq)
	b := 1.15 + 2.53*sq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	alpha := (2.83 + 5.1/b) * sq
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	for {
		// Step 1: the box where the hat lies under the pmf; accept at once.
		v := r.Float64()
		if v <= urvr {
			u := v/vr - 0.43
			if k := math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c); k >= 0 && k <= nf {
				return uint64(k)
			}
			continue
		}
		// Step 2: a point under the hat outside that box.
		var u float64
		if v >= vr {
			u = r.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = r.Float64() * vr
		}
		// Step 3.0.
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		v *= alpha / (a/(us*us) + b)
		km := math.Abs(k - m)
		if km <= 15 {
			// Step 3.1: f(k)/f(m) by the pmf's recurrence.
			f := 1.0
			if m < k {
				for i := m + 1; i <= k; i++ {
					f *= nr/i - s
				}
			} else {
				for i := k + 1; i <= m; i++ {
					v *= nr/i - s
				}
			}
			if v <= f {
				return uint64(k)
			}
			continue
		}
		// Step 3.2: squeeze on log f(k)/f(m).
		v = math.Log(v)
		rho := km / npq * (((km/3+0.625)*km+1.0/6)/npq + 0.5)
		t := -km * km / (2 * npq)
		if v < t-rho {
			return uint64(k)
		}
		if v > t+rho {
			continue
		}
		// Steps 3.3 and 3.4: the exact log ratio through Stirling's series.
		nm := nf - m + 1
		h := (m+0.5)*math.Log((m+1)/(s*nm)) + stirlingTail(m) + stirlingTail(nf-m)
		nk := nf - k + 1
		if v <= h+(nf+1)*math.Log(nm/nk)+(k+0.5)*math.Log(nk*s/(k+1))-stirlingTail(k)-stirlingTail(nf-k) {
			return uint64(k)
		}
	}
}

// stirlingTails holds stirlingTail(k) for k < 10, where the series is short
// of double precision.
var stirlingTails = func() (t [10]float64) {
	for k := range t {
		t[k] = stirlingExact(float64(k))
	}
	return t
}()

// stirlingExact is log k! − [(k+½)·log(k+1) − (k+1) + ½·log 2π], from
// math.Lgamma: exact where k is small enough for no cancellation.
func stirlingExact(k float64) float64 {
	lg, _ := math.Lgamma(k + 1)
	return lg - ((k+0.5)*math.Log(k+1) - (k + 1) + 0.5*math.Log(2*math.Pi))
}

// stirlingTail is stirlingExact(k) for integral k ≥ 0: the table below 10,
// the series 1/12k' − 1/360k'³ + 1/1260k'⁵ (k' = k+1) above it.
func stirlingTail(k float64) float64 {
	if k < 10 {
		return stirlingTails[int(k)]
	}
	k1 := k + 1
	k2 := k1 * k1
	return (1.0/12 - (1.0/360-1.0/1260/k2)/k2) / k1
}
