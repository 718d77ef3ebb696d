package phy

import (
	"math"
	"testing"

	"blu/internal/rng"
)

// RBRateBps returns the data rate in bits/s delivered by one RB
// scheduled every subframe at the given MCS.
func RBRateBps(m MCS) float64 {
	bitsPerSubframe := float64(DataREsPerRB()) * m.Efficiency
	return bitsPerSubframe * 1000 // subframes per second
}

// ShannonRBRateBps returns a Shannon-bound RB rate for comparison and
// for smooth rate curves in tests.
func ShannonRBRateBps(sinrDB float64) float64 {
	sinr := math.Pow(10, sinrDB/10)
	bpsPerHz := math.Log2(1 + sinr)
	const rbBandwidthHz = 180e3
	return bpsPerHz * rbBandwidthHz
}

func TestLogDistanceMonotonic(t *testing.T) {
	pl := IndoorOffice()
	prev := pl.LossDB(1)
	if math.Abs(prev-40) > 1e-9 {
		t.Errorf("reference loss = %v, want 40", prev)
	}
	for d := 2.0; d < 200; d *= 1.5 {
		cur := pl.LossDB(d)
		if cur <= prev {
			t.Fatalf("loss not increasing at %vm", d)
		}
		prev = cur
	}
	// 10x distance adds 10·n dB.
	if diff := pl.LossDB(100) - pl.LossDB(10); math.Abs(diff-30) > 1e-9 {
		t.Errorf("decade loss = %v, want 30", diff)
	}
	// Below the reference distance clamps.
	if pl.LossDB(0.1) != pl.LossDB(1) {
		t.Error("sub-reference distance not clamped")
	}
}

func TestShadowingSymmetricAndMemoized(t *testing.T) {
	sh := NewShadowing(IndoorOffice(), 6, rng.New(1))
	a := sh.LinkLossDB(3, 7, 10)
	b := sh.LinkLossDB(7, 3, 10)
	if a != b {
		t.Errorf("asymmetric shadowing: %v vs %v", a, b)
	}
	if sh.LinkLossDB(3, 7, 10) != a {
		t.Error("shadowing draw not memoized")
	}
	other := sh.LinkLossDB(3, 8, 10)
	if other == a {
		t.Error("different links share a shadowing draw")
	}
}

func TestSelectMCS(t *testing.T) {
	if _, ok := SelectMCS(-10); ok {
		t.Error("MCS selected below minimum SNR")
	}
	low, ok := SelectMCS(-6)
	if !ok || low.Index != 0 {
		t.Errorf("lowest MCS = %+v, ok=%v", low, ok)
	}
	high, ok := SelectMCS(50)
	if !ok || high.Index != 14 {
		t.Errorf("highest MCS = %+v", high)
	}
	// Monotone: more SNR never selects a lower MCS.
	prev := -1
	for snr := -10.0; snr <= 30; snr += 0.5 {
		m, ok := SelectMCS(snr)
		idx := -1
		if ok {
			idx = m.Index
		}
		if idx < prev {
			t.Fatalf("MCS index decreased at %v dB", snr)
		}
		prev = idx
	}
}

func TestRBRate(t *testing.T) {
	m, _ := SelectMCS(20)
	rate := RBRateBps(m)
	// One RB: 12 subcarriers × 12 data symbols × efficiency × 1000/s.
	want := 144 * m.Efficiency * 1000
	if math.Abs(rate-want) > 1e-6 {
		t.Errorf("RBRateBps = %v, want %v", rate, want)
	}
	if DataREsPerRB() != 144 {
		t.Errorf("DataREsPerRB = %d", DataREsPerRB())
	}
	// MCS efficiency stays below the Shannon bound at its threshold SNR.
	for _, mcs := range mcsTable {
		if RBRateBps(mcs) >= ShannonRBRateBps(mcs.MinSNRdB)*1.1 {
			t.Errorf("MCS %d exceeds Shannon at threshold", mcs.Index)
		}
	}
}

func TestMUMIMOStreamSINR(t *testing.T) {
	if got := MUMIMOStreamSINRdB(20, 4, 1); got != 20 {
		t.Errorf("single stream derated: %v", got)
	}
	two := MUMIMOStreamSINRdB(20, 4, 2)
	four := MUMIMOStreamSINRdB(20, 4, 4)
	if !(four < two && two < 20) {
		t.Errorf("derating not monotone: %v %v", two, four)
	}
	// Full load on M antennas costs 10·log10(1/M).
	if math.Abs(four-(20+10*math.Log10(0.25))) > 1e-9 {
		t.Errorf("full-load derate = %v", four)
	}
	if !math.IsInf(MUMIMOStreamSINRdB(20, 2, 3), -1) {
		t.Error("overloaded array should be unresolvable")
	}
}

// Fading models per-subframe block fading as a multiplicative SNR
// factor; the simulator uses RicianFading, and the others are the
// references it is checked against.
type Fading interface {
	// Gain returns a linear power gain for one coherence block.
	Gain(r *rng.Source) float64
}

// RayleighFading is unit-mean Rayleigh (exponential power) block fading.
type RayleighFading struct{}

// Gain is an Exp(1) power gain.
func (RayleighFading) Gain(r *rng.Source) float64 { return r.ExpFloat64() }

// NoFading is a static channel with unit gain.
type NoFading struct{}

func (NoFading) Gain(*rng.Source) float64 { return 1 }

func TestFadingMeansUnit(t *testing.T) {
	r := rng.New(5)
	for _, f := range []Fading{RayleighFading{}, RicianFading{K: 6}, NoFading{}} {
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			g := f.Gain(r)
			if g < 0 {
				t.Fatalf("%T produced negative gain", f)
			}
			sum += g
		}
		if mean := sum / n; math.Abs(mean-1) > 0.02 {
			t.Errorf("%T mean gain = %v, want ~1", f, mean)
		}
	}
}

func TestRicianLessVariableThanRayleigh(t *testing.T) {
	r := rng.New(6)
	varOf := func(f Fading) float64 {
		var sum, sq float64
		const n = 100000
		for i := 0; i < n; i++ {
			g := f.Gain(r)
			sum += g
			sq += g * g
		}
		mean := sum / n
		return sq/n - mean*mean
	}
	if varOf(RicianFading{K: 6}) >= varOf(RayleighFading{}) {
		t.Error("Rician K=6 should fluctuate less than Rayleigh")
	}
}
