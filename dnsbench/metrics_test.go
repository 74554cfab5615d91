package main

import (
	"math"
	"testing"
)

func TestTailHighestPercentileWithTenBeyond(t *testing.T) {
	// 1..n shuffled: the sorted sample at index n-11 has exactly 10 above it.
	for _, n := range []int{21, 30, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*11)%n] = float64(i + 1) // a permutation: n is coprime to 11
		}
		v, pct := tail(xs)
		if v != float64(n-10) {
			t.Errorf("n=%d: tail %v, want %v", n, v, n-10)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", n, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); math.Abs(pct-want) > 1e-12 {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

func TestTailFallsBackToMaxWithFewSamples(t *testing.T) {
	// Below 21 samples the rule's percentile would not lie above the median.
	for _, n := range []int{1, 5, 11, 20} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		v, pct := tail(xs)
		if v != float64(n) || pct != 100 {
			t.Errorf("n=%d: tail %v at p%v, want the maximum %d at p100", n, v, pct, n)
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 0 {
		t.Errorf("no samples: tail %v at p%v, want 0", v, pct)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCheckStatusLine(t *testing.T) {
	good := "step     12  t=  0.0060  E=4321.642676  u_tau=1.0000  Ub= 60.0000  BCres=2.61e-18"
	if err := checkStatusLine(good, 12); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}
	for _, bad := range []struct {
		line string
		step int
	}{
		{good, 13}, // wrong step
		{"step     12  t=  0.0060  E=NaN  u_tau=1.0000  Ub= 60.0000  BCres=2.61e-18", 12},
		{"step     12  t=  0.0060  E=4321.642676  u_tau=+Inf  Ub= 60.0000  BCres=2.61e-18", 12},
		{"step     12  t=  0.0060  E=4321.642676  u_tau=1.0000  Ub= 60.0000  BCres=3.00e-04", 12},
		{"step     12  t=  0.0060  E=4321.642676  u_tau=1.0000  Ub= 60.0000", 12}, // residual missing
	} {
		if err := checkStatusLine(bad.line, bad.step); err == nil {
			t.Errorf("accepted %q at step %d", bad.line, bad.step)
		}
	}
}
