package bench

import (
	"slices"
	"testing"
)

// TestMedianIQR pins the estimator to Python's
// statistics.quantiles(vs, n=4) (exclusive method), the rule
// benchmark/stats.go follows.
func TestMedianIQR(t *testing.T) {
	for _, tc := range []struct {
		name        string
		vs          []float64
		median, iqr float64
	}{
		{"none", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"odd", []float64{3, 1, 2}, 2, 2},                                  // quartiles 1, 3
		{"even", []float64{4, 1, 3, 2}, 2.5, 2.5},                          // quartiles 1.25, 3.75
		{"ties", []float64{7, 7, 7, 7, 7}, 7, 0},                           // quartiles 7, 7
		{"tied middle", []float64{2, 9, 2, 1, 2}, 2, 4},                    // quartiles 1.5, 5.5
		{"ten rounds", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 5.5}, // quartiles 2.75, 8.25
		{"negative", []float64{-3, 4, -1, 0}, -0.5, 5.5},                   // quartiles -2.5, 3
	} {
		in := slices.Clone(tc.vs)
		median, iqr := medianIQR(tc.vs)
		if median != tc.median || iqr != tc.iqr {
			t.Errorf("%s: medianIQR(%v) = %g, %g; want %g, %g", tc.name, tc.vs, median, iqr, tc.median, tc.iqr)
		}
		if !slices.Equal(in, tc.vs) {
			t.Errorf("%s: input reordered to %v", tc.name, tc.vs)
		}
	}
}
