package wifi

import (
	"math"
	"testing"

	"blu/internal/rng"
)

func TestFrameDuration(t *testing.T) {
	// 1500 B at 6 Mbps = 2000 µs + preamble.
	if got := FrameDurationUS(1500, 6); got != PreambleUS+2000 {
		t.Errorf("FrameDurationUS = %d", got)
	}
	// Higher rate → shorter frame.
	if FrameDurationUS(1500, 54) >= FrameDurationUS(1500, 6) {
		t.Error("54 Mbps frame not shorter than 6 Mbps")
	}
	// Zero rate falls back to the base rate.
	if FrameDurationUS(1500, 0) != FrameDurationUS(1500, 6) {
		t.Error("zero rate not defaulted")
	}
	if ExchangeDurationUS(1500, 24) != FrameDurationUS(1500, 24)+SIFSUS+AckUS {
		t.Error("exchange duration mismatch")
	}
}

func TestRateForSNR(t *testing.T) {
	if RateForSNR(0) != 6 {
		t.Errorf("floor rate = %v", RateForSNR(0))
	}
	if RateForSNR(40) != 54 {
		t.Errorf("ceiling rate = %v", RateForSNR(40))
	}
	prev := Rate(0)
	for snr := 0.0; snr <= 40; snr++ {
		r := RateForSNR(snr)
		if r < prev {
			t.Fatalf("rate decreased at %v dB", snr)
		}
		prev = r
	}
}

func checkActivity(t *testing.T, a *Activity) {
	t.Helper()
	var prev int64 = -1
	for _, iv := range a.Busy {
		if iv.Start < prev {
			t.Fatalf("intervals overlap or unsorted: %+v after end %d", iv, prev)
		}
		if iv.End <= iv.Start {
			t.Fatalf("empty interval %+v", iv)
		}
		if iv.End > a.HorizonUS {
			t.Fatalf("interval %+v beyond horizon %d", iv, a.HorizonUS)
		}
		prev = iv.End
	}
}

func TestStationGenerate(t *testing.T) {
	st := Station{Traffic: Saturated{}, Rate: 24}
	a := st.Generate(1_000_000, rng.New(1))
	checkActivity(t, a)
	// A saturated sender should occupy most of the channel.
	if at := a.Airtime(); at < 0.75 || at > 0.98 {
		t.Errorf("saturated airtime = %v", at)
	}
}

func TestDutyCycleAirtime(t *testing.T) {
	for _, target := range []float64{0.2, 0.35, 0.6} {
		st := Station{Traffic: DutyCycle{Target: target}, Rate: 24}
		a := st.Generate(5_000_000, rng.New(7))
		checkActivity(t, a)
		if at := a.Airtime(); math.Abs(at-target) > 0.08 {
			t.Errorf("duty %v airtime = %v", target, at)
		}
	}
}

func TestPoissonLighterThanSaturated(t *testing.T) {
	sat := Station{Traffic: Saturated{}, Rate: 24}.Generate(2_000_000, rng.New(3))
	poi := Station{Traffic: Poisson{MeanGapUS: 5000}, Rate: 24}.Generate(2_000_000, rng.New(3))
	checkActivity(t, poi)
	if poi.Airtime() >= sat.Airtime() {
		t.Errorf("poisson airtime %v >= saturated %v", poi.Airtime(), sat.Airtime())
	}
}

func TestOnOffBursty(t *testing.T) {
	st := Station{Traffic: &OnOff{BurstUS: 20000, IdleUS: 50000}, Rate: 24}
	a := st.Generate(5_000_000, rng.New(9))
	checkActivity(t, a)
	if at := a.Airtime(); at <= 0.02 || at >= 0.9 {
		t.Errorf("on/off airtime = %v", at)
	}
}

func TestBusyQueries(t *testing.T) {
	a := &Activity{
		HorizonUS: 1000,
		Busy:      []Interval{{100, 200}, {500, 600}},
	}
	cases := []struct {
		us   int64
		want bool
	}{
		{99, false}, {100, true}, {199, true}, {200, false},
		{499, false}, {550, true}, {600, false},
	}
	for _, c := range cases {
		if got := a.BusyIn(c.us, c.us+1); got != c.want {
			t.Errorf("BusyIn(%d, %d) = %v", c.us, c.us+1, got)
		}
	}
	if !a.BusyIn(150, 160) || !a.BusyIn(0, 101) || !a.BusyIn(199, 500) {
		t.Error("BusyIn missed overlap")
	}
	if a.BusyIn(200, 500) || a.BusyIn(0, 100) || a.BusyIn(600, 1000) {
		t.Error("BusyIn false positive")
	}
	if a.Airtime() != 0.2 {
		t.Errorf("Airtime = %v", a.Airtime())
	}
}

func TestDomainSerializesTransmissions(t *testing.T) {
	dom := Domain{Stations: []Station{
		{ID: 0, Traffic: Saturated{}, Rate: 24},
		{ID: 1, Traffic: Saturated{}, Rate: 24},
	}}
	acts := dom.Generate(2_000_000, rng.New(11))
	if len(acts) != 2 {
		t.Fatalf("got %d activities", len(acts))
	}
	for _, a := range acts {
		checkActivity(t, a)
	}
	// Collisions exist but most airtime must not overlap: count the
	// overlap between the two stations' busy time.
	overlap := overlapUS(acts[0], acts[1])
	total0 := int64(float64(acts[0].HorizonUS) * acts[0].Airtime())
	if overlap > total0/4 {
		t.Errorf("overlap %dus is too large for carrier-sensing stations (busy %dus)", overlap, total0)
	}
	// Both stations must share the channel roughly fairly.
	a0, a1 := acts[0].Airtime(), acts[1].Airtime()
	if math.Abs(a0-a1) > 0.15 {
		t.Errorf("unfair DCF split: %v vs %v", a0, a1)
	}
	// And together they should fill most of the channel.
	if a0+a1 < 0.7 {
		t.Errorf("combined airtime %v too low for two saturated stations", a0+a1)
	}
}

func overlapUS(a, b *Activity) int64 {
	var total int64
	j := 0
	for _, iv := range a.Busy {
		for j < len(b.Busy) && b.Busy[j].End <= iv.Start {
			j++
		}
		for k := j; k < len(b.Busy) && b.Busy[k].Start < iv.End; k++ {
			lo := max64(iv.Start, b.Busy[k].Start)
			hi := min64(iv.End, b.Busy[k].End)
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestDomainSingleStationMatchesSolo(t *testing.T) {
	st := Station{Traffic: DutyCycle{Target: 0.3}, Rate: 24}
	acts := Domain{Stations: []Station{st}}.Generate(2_000_000, rng.New(13))
	checkActivity(t, acts[0])
	if at := acts[0].Airtime(); math.Abs(at-0.3) > 0.1 {
		t.Errorf("single-station domain airtime = %v", at)
	}
}

func TestTrafficModelStrings(t *testing.T) {
	for _, tm := range []TrafficModel{Saturated{}, Poisson{MeanGapUS: 100}, &OnOff{BurstUS: 1, IdleUS: 2}, DutyCycle{Target: 0.5}} {
		if tm.String() == "" {
			t.Errorf("%T has empty String()", tm)
		}
	}
}
