package topology

import (
	"testing"

	"blu/internal/geom"
	"blu/internal/phy"
	"blu/internal/rng"
)

// manualScenario places one eNB, two UEs and three stations at
// controlled distances (no shadowing): station 0 blocks UE 0 only,
// station 1 blocks both UEs, station 2 is audible at the eNB.
func manualScenario() *Scenario {
	// With the indoor-office model at 15 dBm, the −70 dBm ED range is
	// ≈32 m: inside 32 m is sensed, beyond is not.
	enb := geom.Point{X: 0, Y: 0}
	ues := []geom.Point{{X: 20, Y: 0}, {X: -20, Y: 0}}
	stations := []geom.Point{
		{X: 40, Y: 0},  // 20 m from UE0 (blocks), 60 m from UE1, 40 m from eNB (hidden)
		{X: 0, Y: -36}, // equidistant ≈41 m from both UEs, 36 m from eNB (hidden)
		{X: 10, Y: 0},  // 10 m from eNB: audible at eNB
	}
	return Manual(enb, ues, stations, rng.New(1))
}

func TestManualScenarioEdges(t *testing.T) {
	s := manualScenario()
	// Station 1 at (0,-36): distance to each UE = sqrt(20²+36²) ≈ 41 m
	// — too far to block. Move expectations from geometry:
	d := s.Stations[1].Dist(s.UEs[0])
	blocks := phy.RxPowerDBm(phy.DefaultTxPowerDBm, phy.IndoorOffice().LossDB(d)) >= phy.EnergyDetectThresholdDBm
	edges := s.HiddenTerminalEdges()

	if !edges[0].Has(0) {
		t.Error("station 0 should block UE 0 (20 m)")
	}
	if edges[0].Has(1) {
		t.Error("station 0 should not block UE 1 (60 m)")
	}
	if got := edges[1].Has(0); got != blocks {
		t.Errorf("station 1 blocking = %v, geometry says %v", got, blocks)
	}
	if !edges[2].Empty() {
		t.Error("eNB-audible station must contribute no hidden edges")
	}
	if s.HiddenFromENB(2) {
		t.Error("station 2 at 10 m should be audible at the eNB")
	}
	if !s.HiddenFromENB(0) {
		t.Error("station 0 at 40 m should be hidden from the eNB")
	}
}

func TestGroundTruth(t *testing.T) {
	s := manualScenario()
	airtime := []float64{0.4, 0.3, 0.9}
	gt := s.GroundTruth(airtime)
	if gt.N != 2 {
		t.Fatalf("N = %d", gt.N)
	}
	for _, ht := range gt.HTs {
		if ht.Clients.Empty() {
			t.Error("ground-truth terminal with no edges")
		}
		if ht.Q <= 0 || ht.Q >= 1 {
			t.Errorf("q = %v out of range", ht.Q)
		}
	}
	// Station 2 (audible at eNB) must not appear even with airtime 0.9.
	for _, ht := range gt.HTs {
		if ht.Q == 0.9 {
			t.Error("eNB-audible station in ground truth")
		}
	}
	// Nil airtime defaults to q=0.5.
	gt = s.GroundTruth(nil)
	for _, ht := range gt.HTs {
		if ht.Q != 0.5 {
			t.Errorf("default q = %v", ht.Q)
		}
	}
}

func TestUplinkSNRReasonable(t *testing.T) {
	s := manualScenario()
	for i := range s.UEs {
		snr := s.UplinkSNRdB(i)
		if snr < 10 || snr > 70 {
			t.Errorf("UE %d SNR = %v dB, outside sane indoor range", i, snr)
		}
	}
}

func TestNewScenarioValidation(t *testing.T) {
	if _, err := NewScenario(Config{NumUEs: 0, NumStations: 1}, rng.New(1)); err == nil {
		t.Error("zero UEs accepted")
	}
	if _, err := NewScenario(Config{NumUEs: 100, NumStations: 1}, rng.New(1)); err == nil {
		t.Error("too many UEs accepted")
	}
	if _, err := NewScenario(Config{NumUEs: 4, NumStations: -1}, rng.New(1)); err == nil {
		t.Error("negative stations accepted")
	}
	s, err := NewScenario(Config{NumUEs: 6, NumStations: 10}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.UEs) != 6 || len(s.Stations) != 10 {
		t.Errorf("placed %d UEs, %d stations", len(s.UEs), len(s.Stations))
	}
	f := Config{}.withDefaults().Floor
	for _, p := range s.UEs {
		if !f.Contains(p) {
			t.Errorf("UE %v outside floor", p)
		}
	}
}

func TestScenarioDeterministicPerSeed(t *testing.T) {
	a, err := NewScenario(Config{NumUEs: 5, NumStations: 7}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(Config{NumUEs: 5, NumStations: 7}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.UEs {
		if a.UEs[i] != b.UEs[i] {
			t.Fatal("UE placement not deterministic")
		}
	}
	if a.RxAtUE(0, 0) != b.RxAtUE(0, 0) {
		t.Error("shadowing not deterministic")
	}
}

func TestSensingAnalysis(t *testing.T) {
	// Build a scenario with stations in the band between CS (−85) and
	// ED (−70): at 15 dBm tx, that is 32–100 m away.
	enb := geom.Point{X: 0, Y: 0}
	ues := []geom.Point{{X: 0, Y: 0}}
	stations := []geom.Point{
		{X: 20, Y: 0},  // sensed by both (−70 side)
		{X: 60, Y: 0},  // sensed by WiFi CS only: unsensed for LTE
		{X: 90, Y: 0},  // sensed by WiFi CS only: unsensed for LTE
		{X: 160, Y: 0}, // interferes, unsensed by both
		{X: 500, Y: 0}, // below interference floor for both
	}
	s := Manual(enb, ues, stations, rng.New(1))
	a := DefaultSensingAnalysis()
	wifi := a.UnsensedInterferers(s, phy.WiFiCSThresholdDBm)
	lte := a.UnsensedInterferers(s, phy.EnergyDetectThresholdDBm)
	if wifi[0] != 1 {
		t.Errorf("wifi unsensed = %d, want 1", wifi[0])
	}
	if lte[0] != 3 {
		t.Errorf("lte unsensed = %d, want 3", lte[0])
	}
	wm, lm := a.CompareCellTechnologies(s)
	if wm != 1 || lm != 3 {
		t.Errorf("means = %v, %v", wm, lm)
	}
}
