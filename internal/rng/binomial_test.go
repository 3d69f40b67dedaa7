package rng

import (
	"fmt"
	"math"
	"testing"
)

// binomialPMF is the exact Binomial(n, p) probability of k.
func binomialPMF(n, k int, p float64) float64 {
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// chiSquareBound is the χ² quantile of df degrees of freedom at z standard
// deviations (Wilson–Hilferty); z = 4.75 is a one-sided p of about 1e-6.
func chiSquareBound(df int, z float64) float64 {
	d := float64(df)
	x := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * x * x * x
}

// TestBinomialMatchesPMF: a χ² goodness-of-fit test of Binomial against the
// exact pmf at small n, on both sides of the inversion/BTRD threshold, in
// BTRD's squeeze and exact-evaluation ranges, and through p > 1/2's
// reflection. Cells expected below 5 draws are pooled with their neighbour.
func TestBinomialMatchesPMF(t *testing.T) {
	const draws = 200000
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.5}, {40, 0.1}, {200, 0.045}, // inversion
		{60, 0.3}, {200, 0.45}, {1000, 0.02}, {5000, 0.3}, // BTRD
		{100, 0.85}, {3, 0.999}, // reflected
	} {
		t.Run(fmt.Sprintf("n=%d,p=%g", tc.n, tc.p), func(t *testing.T) {
			r := New(uint64(tc.n) * 7919)
			count := make([]int, tc.n+1)
			for i := 0; i < draws; i++ {
				k := r.Binomial(uint64(tc.n), tc.p)
				if k > uint64(tc.n) {
					t.Fatalf("Binomial(%d, %g) = %d", tc.n, tc.p, k)
				}
				count[k]++
			}
			chi2, df := 0.0, -1
			var obs, exp float64
			for k := 0; k <= tc.n; k++ {
				obs += float64(count[k])
				exp += draws * binomialPMF(tc.n, k, tc.p)
				if exp >= 5 || k == tc.n {
					chi2 += (obs - exp) * (obs - exp) / math.Max(exp, 1e-300)
					df++
					obs, exp = 0, 0
				}
			}
			if df < 1 {
				df = 1
			}
			if bound := chiSquareBound(df, 4.75); chi2 > bound {
				t.Errorf("χ² = %.1f over %d degrees of freedom, bound %.1f", chi2, df, bound)
			}
		})
	}
}

// TestBinomialMeanAndVariance at means far beyond the χ² test's reach: the
// sample mean within 5 standard errors of np, the sample variance within
// 5 % of np(1−p).
func TestBinomialMeanAndVariance(t *testing.T) {
	const draws = 40000
	for _, tc := range []struct {
		n uint64
		p float64
	}{
		{1 << 20, 0.5}, {1 << 31, 0.37}, {1 << 31, 1e-6}, {1e12, 0.9}, {64, 0.25},
	} {
		r := New(tc.n ^ math.Float64bits(tc.p))
		var sum, sum2 float64
		for i := 0; i < draws; i++ {
			x := float64(r.Binomial(tc.n, tc.p))
			sum += x
			sum2 += x * x
		}
		mean := sum / draws
		variance := sum2/draws - mean*mean
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		if se := math.Sqrt(wantVar / draws); math.Abs(mean-wantMean) > 5*se {
			t.Errorf("Binomial(%d, %g): mean %.2f, want %.2f ± %.2f", tc.n, tc.p, mean, wantMean, 5*se)
		}
		if math.Abs(variance/wantVar-1) > 0.05 {
			t.Errorf("Binomial(%d, %g): variance %.2f, want %.2f ± 5%%", tc.n, tc.p, variance, wantVar)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(1)
	for _, tc := range []struct {
		n    uint64
		p    float64
		want uint64
	}{
		{0, 0.5, 0}, {10, 0, 0}, {10, 1, 10}, {1 << 40, 0, 0}, {1 << 40, 1, 1 << 40},
	} {
		if got := r.Binomial(tc.n, tc.p); got != tc.want {
			t.Errorf("Binomial(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestStirlingTailSeries: the three-term series BTRD evaluates from k = 10
// on agrees with the exact correction to within its first dropped term,
// 1/1680k'⁷ (4·10⁻⁹ of the value at k = 10).
func TestStirlingTailSeries(t *testing.T) {
	for _, k := range []float64{10, 11, 30, 1000} {
		if got, want := stirlingTail(k), stirlingExact(k); math.Abs(got-want) > 1e-8*want {
			t.Errorf("stirlingTail(%g) = %.15g, exact %.15g", k, got, want)
		}
	}
}

func BenchmarkBinomial(b *testing.B) {
	for _, tc := range []struct {
		n uint64
		p float64
	}{{64, 0.5}, {1 << 20, 0.5}} {
		b.Run(fmt.Sprintf("n=%d", tc.n), func(b *testing.B) {
			r := New(1)
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += r.Binomial(tc.n, tc.p)
			}
			_ = sink
		})
	}
}
