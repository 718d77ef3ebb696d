package stats

import (
	"math"
	"testing"

	"blu/internal/obs"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	if got, _ := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v, %v] excludes the point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide for n=100: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("no-data interval = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 10)
	if lo != 0 || hi < 0.05 {
		t.Errorf("zero-successes interval = [%v, %v]", lo, hi)
	}
	// Interval shrinks with n.
	_, hi1 := WilsonInterval(5, 10)
	lo2, hi2 := WilsonInterval(500, 1000)
	if hi2-lo2 >= hi1-0.5 {
		t.Error("interval did not shrink with sample size")
	}
}

// TestWilsonIntervalClampsInputs is the regression test for the NaN
// bug: k outside [0, n] made p·(1−p) negative under the square root, so
// both bounds came back NaN. Out-of-range inputs must clamp to the
// nearest valid count and negative n must behave like n = 0.
func TestWilsonIntervalClampsInputs(t *testing.T) {
	const n = 10
	cases := []struct {
		name         string
		k            int
		wantLo       float64 // exact expected equality with the clamped call
		clampK       int
		checkExtreme func(lo, hi float64) bool
	}{
		{"k=-1 clamps to 0", -1, 0, 0, func(lo, hi float64) bool { return lo == 0 }},
		{"k=0 in range", 0, 0, 0, func(lo, hi float64) bool { return lo == 0 }},
		{"k=n in range", n, 0, n, func(lo, hi float64) bool { return hi == 1 }},
		{"k=n+1 clamps to n", n + 1, 0, n, func(lo, hi float64) bool { return hi == 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := WilsonInterval(tc.k, n)
			if math.IsNaN(lo) || math.IsNaN(hi) {
				t.Fatalf("WilsonInterval(%d, %d) = [%v, %v]: NaN bound", tc.k, n, lo, hi)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("WilsonInterval(%d, %d) = [%v, %v]: not a sub-interval of [0,1]", tc.k, n, lo, hi)
			}
			wantLo, wantHi := WilsonInterval(tc.clampK, n)
			if lo != wantLo || hi != wantHi {
				t.Errorf("WilsonInterval(%d, %d) = [%v, %v], want the k=%d interval [%v, %v]",
					tc.k, n, lo, hi, tc.clampK, wantLo, wantHi)
			}
			if !tc.checkExtreme(lo, hi) {
				t.Errorf("WilsonInterval(%d, %d) = [%v, %v]: extreme bound not pinned", tc.k, n, lo, hi)
			}
		})
	}
	if lo, hi := WilsonInterval(3, -1); lo != 0 || hi != 1 {
		t.Errorf("negative n interval = [%v, %v], want vacuous [0, 1]", lo, hi)
	}
}

func TestPercentileSkipsNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		xs      []float64
		p       float64
		want    float64
		wantErr bool
	}{
		{"median around NaNs", []float64{nan, 1, nan, 3, 2, nan}, 50, 2, false},
		{"max ignores NaN", []float64{nan, 5}, 100, 5, false},
		{"all NaN is empty", []float64{nan, nan}, 50, 0, true},
		{"NaN plus single value", []float64{nan, 7}, 50, 7, false},
	}
	for _, c := range cases {
		got, err := Percentile(c.xs, c.p)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: want error, got %v", c.name, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.IsNaN(got) || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Percentile = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNaNSampleCounter checks the dropped-NaN count surfaces through
// the obs layer when enabled.
func TestNaNSampleCounter(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	before := nanSamples.Value()
	if _, err := Percentile([]float64{math.NaN(), 1, math.NaN(), math.NaN()}, 50); err != nil {
		t.Fatal(err)
	}
	if got := nanSamples.Value() - before; got != 3 {
		t.Errorf("stats_nan_samples_total delta = %d, want 3", got)
	}
}
