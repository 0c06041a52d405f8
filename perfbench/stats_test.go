package main

import "testing"

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 9, 4, 4.25}, 1.5, 4, 6.625},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median/quartiles reordered their input: %v", xs)
	}
}

func TestPercentileNS(t *testing.T) {
	ds := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 30}, {99, 50}, {1, 10}, {100, 50}} {
		if got := percentileNS(ds, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileNS(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestMeanOfMediansSkipsDatasetsWithoutSamples(t *testing.T) {
	of := func(xs ...float64) []*sample {
		var ss []*sample
		for _, x := range xs {
			ss = append(ss, &sample{cpuS: x})
		}
		return ss
	}
	// Medians 2 (of 1, 3) and 4; the failed dataset does not count.
	got := meanOfMedians([][]*sample{of(1, 3), nil, of(4)}, func(s *sample) float64 { return s.cpuS })
	if got != 3 {
		t.Errorf("mean of medians = %v, want 3", got)
	}
}
