package main

import (
	"math"
	"testing"
)

func TestMedianIQR(t *testing.T) {
	med, iqr := medianIQR([]float64{5, 1, 4, 2, 3})
	if med != 3 || iqr != 2 {
		t.Errorf("odd: median %v IQR %v, want 3 and 2", med, iqr)
	}
	med, iqr = medianIQR([]float64{4, 1, 3, 2})
	if med != 2.5 || iqr != 1.5 {
		t.Errorf("even: median %v IQR %v, want 2.5 and 1.5", med, iqr)
	}
	if med, _ := medianIQR(nil); !math.IsNaN(med) {
		t.Errorf("empty: median %v, want NaN", med)
	}
}

func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "minstr_per_s", Better: "higher", Bound: 0.25}
	cases := []struct {
		name       string
		m          metricSpec
		base, head []float64
		wins       int
		regressed  bool
	}{
		{"lower improves", lower, []float64{10, 11, 12}, []float64{5, 6, 13}, 2, false},
		{"lower within bound", lower, []float64{10, 10, 10}, []float64{12, 12, 12}, 0, false},
		{"lower beyond bound", lower, []float64{10, 10, 10}, []float64{13, 13, 13}, 0, true},
		{"higher improves", higher, []float64{10, 10, 10}, []float64{11, 9, 12}, 2, false},
		{"higher beyond bound", higher, []float64{10, 10, 10}, []float64{7, 7, 7}, 0, true},
	}
	for _, c := range cases {
		got := compare(c.m, c.base, c.head)
		if got.wins != c.wins || got.regressed != c.regressed || got.pairs != len(c.base) {
			t.Errorf("%s: wins %d/%d regressed %v, want %d/%d %v",
				c.name, got.wins, got.pairs, got.regressed, c.wins, len(c.base), c.regressed)
		}
	}
}
