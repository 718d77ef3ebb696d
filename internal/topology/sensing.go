package topology

import (
	"blu/internal/phy"
)

// SensingAnalysis reproduces the Section 2.2/Fig 4c observation: when a
// WiFi cell is replaced by an LTE cell in an otherwise-WiFi
// environment, the clients lose preamble-based carrier sensing
// (−85 dBm) and must rely on cross-technology energy detection
// (−70/−65 dBm), so the number of interfering stations they cannot
// sense — unsensed interferers, the hidden terminals of the paper —
// grows substantially.
type SensingAnalysis struct {
	// InterferenceFloorDBm is the weakest received power that still
	// disturbs reception (default −92 dBm, near the noise floor).
	InterferenceFloorDBm float64
}

// DefaultSensingAnalysis returns the analysis with the default
// interference floor.
func DefaultSensingAnalysis() SensingAnalysis {
	return SensingAnalysis{InterferenceFloorDBm: -92}
}

// UnsensedInterferers counts, for each UE of the scenario, the stations
// whose signal is strong enough at the UE to interfere (at or above the
// interference floor) yet too weak for the UE to sense at senseDBm —
// exactly the stations the UE cannot coordinate with. Pass
// phy.WiFiCSThresholdDBm for a WiFi client and
// phy.EnergyDetectThresholdDBm for an LTE UE.
func (a SensingAnalysis) UnsensedInterferers(s *Scenario, senseDBm float64) []int {
	counts := make([]int, len(s.UEs))
	for i := range s.UEs {
		for k := range s.Stations {
			rx := s.RxAtUE(k, i)
			if rx >= a.InterferenceFloorDBm && rx < senseDBm {
				counts[i]++
			}
		}
	}
	return counts
}

// CompareCellTechnologies returns the mean number of unsensed
// interferers per client when the cell's clients are WiFi (carrier
// sensing at −85 dBm) versus LTE (energy detection at −70 dBm). The
// ratio lteMean/wifiMean is the Fig 4c quantity; the paper reports it
// "well over two times".
func (a SensingAnalysis) CompareCellTechnologies(s *Scenario) (wifiMean, lteMean float64) {
	wifi := a.UnsensedInterferers(s, phy.WiFiCSThresholdDBm)
	lte := a.UnsensedInterferers(s, phy.EnergyDetectThresholdDBm)
	var ws, ls float64
	for i := range wifi {
		ws += float64(wifi[i])
		ls += float64(lte[i])
	}
	n := float64(len(wifi))
	if n == 0 {
		return 0, 0
	}
	return ws / n, ls / n
}
