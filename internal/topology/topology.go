// Package topology builds the physical deployment scenarios the paper
// evaluates on — an eNB, its UEs, and WiFi stations acting as hidden
// terminals on an enterprise floor — and derives from the radio
// geometry the ground-truth interference blueprint that BLU's inference
// is scored against.
//
// A WiFi station is a *hidden terminal* for a UE when the UE senses its
// transmissions during CCA (received power at or above the UE's
// energy-detection threshold) while the eNB does not (received power at
// the eNB below its sensing threshold), so the eNB keeps issuing grants
// the UE cannot use.
package topology

import (
	"fmt"

	"blu/internal/blueprint"
	"blu/internal/geom"
	"blu/internal/phy"
	"blu/internal/rng"
)

// Scenario is one physical deployment: node positions plus the radio
// model binding them. The radio constants are phy's: every node
// transmits at phy.DefaultTxPowerDBm, and UEs and the eNB both sense at
// the phy.EnergyDetectThresholdDBm energy-detection threshold.
type Scenario struct {
	// ENB is the base-station position.
	ENB geom.Point
	// UEs are the LTE client positions.
	UEs []geom.Point
	// Stations are the WiFi transmitter positions (hidden-terminal
	// candidates).
	Stations []geom.Point

	loss *phy.Shadowing
}

// Node index layout inside the shadowing model: eNB, then UEs, then
// stations.
func (s *Scenario) enbIdx() int          { return 0 }
func (s *Scenario) ueIdx(i int) int      { return 1 + i }
func (s *Scenario) stationIdx(k int) int { return 1 + len(s.UEs) + k }

// Config parameterizes scenario construction.
type Config struct {
	// Floor is the deployment area (default 50×30 m enterprise floor).
	Floor geom.Floor
	// NumUEs and NumStations size the deployment.
	NumUEs, NumStations int
	// Clustered places stations in clusters (neighboring cells) instead
	// of uniformly.
	Clustered bool
}

func (c Config) withDefaults() Config {
	if c.Floor.Width == 0 {
		c.Floor = geom.Floor{Width: 50, Height: 30}
	}
	return c
}

// NewScenario places the eNB at the floor center, UEs uniformly on the
// floor, and stations uniformly (or clustered) with a bias away from
// the eNB so most stations end up hidden from it, mirroring the paper's
// testbed placements. All draws come from r.
func NewScenario(cfg Config, r *rng.Source) (*Scenario, error) {
	cfg = cfg.withDefaults()
	if cfg.NumUEs < 1 || cfg.NumUEs > blueprint.MaxClients {
		return nil, fmt.Errorf("topology: NumUEs %d out of range", cfg.NumUEs)
	}
	if cfg.NumStations < 0 {
		return nil, fmt.Errorf("topology: negative NumStations")
	}
	s := &Scenario{
		ENB: cfg.Floor.Center(),
		UEs: geom.UniformPlacement(cfg.Floor, cfg.NumUEs, r.Split("ues")),
	}
	if cfg.Clustered {
		s.Stations = geom.ClusteredPlacement(cfg.Floor, cfg.NumStations, max(1, cfg.NumStations/3), 3, r.Split("stations"))
	} else {
		s.Stations = geom.UniformPlacement(cfg.Floor, cfg.NumStations, r.Split("stations"))
	}
	s.loss = phy.NewShadowing(phy.IndoorOffice(), phy.ShadowSigmaDB, r.Split("shadowing"))
	return s, nil
}

// Manual builds a scenario from explicit positions with no shadowing —
// used by tests and the testbed-replica topologies where placement is
// controlled.
func Manual(enb geom.Point, ues, stations []geom.Point, r *rng.Source) *Scenario {
	s := &Scenario{ENB: enb, UEs: ues, Stations: stations}
	s.loss = phy.NewShadowing(phy.IndoorOffice(), 0, r)
	return s
}

// RxAtUE returns station k's received power (dBm) at UE i.
func (s *Scenario) RxAtUE(k, i int) float64 {
	d := s.Stations[k].Dist(s.UEs[i])
	return phy.RxPowerDBm(phy.DefaultTxPowerDBm, s.loss.LinkLossDB(s.stationIdx(k), s.ueIdx(i), d))
}

// RxAtENB returns station k's received power (dBm) at the eNB.
func (s *Scenario) RxAtENB(k int) float64 {
	d := s.Stations[k].Dist(s.ENB)
	return phy.RxPowerDBm(phy.DefaultTxPowerDBm, s.loss.LinkLossDB(s.stationIdx(k), s.enbIdx(), d))
}

// UplinkSNRdB returns UE i's uplink SNR (dB) at the eNB before fading.
func (s *Scenario) UplinkSNRdB(i int) float64 {
	d := s.UEs[i].Dist(s.ENB)
	rx := phy.RxPowerDBm(phy.DefaultTxPowerDBm, s.loss.LinkLossDB(s.ueIdx(i), s.enbIdx(), d))
	return rx - phy.NoiseFloorDBm
}

// HiddenFromENB reports whether station k is inaudible at the eNB's
// LBT, i.e. it cannot block the eNB's own channel access.
func (s *Scenario) HiddenFromENB(k int) bool {
	return s.RxAtENB(k) < phy.EnergyDetectThresholdDBm
}

// Blocks reports whether station k's transmissions silence UE i's CCA.
func (s *Scenario) Blocks(k, i int) bool {
	return s.RxAtUE(k, i) >= phy.EnergyDetectThresholdDBm
}

// HiddenTerminalEdges returns, per station, the set of UEs it blocks —
// counting only stations hidden from the eNB (stations the eNB senses
// suppress the whole TxOP instead and are not BLU's problem). Stations
// blocking no UE get an empty set.
func (s *Scenario) HiddenTerminalEdges() []blueprint.ClientSet {
	edges := make([]blueprint.ClientSet, len(s.Stations))
	for k := range s.Stations {
		if !s.HiddenFromENB(k) {
			continue
		}
		for i := range s.UEs {
			if s.Blocks(k, i) {
				edges[k] = edges[k].Add(i)
			}
		}
	}
	return edges
}

// GroundTruth assembles the ground-truth blueprint: one hidden terminal
// per station that is hidden from the eNB and blocks at least one UE,
// with the station's channel airtime as its access probability q(k).
// airtime[k] may come from the WiFi activity simulation; a nil slice
// uses 0.5 for every station.
func (s *Scenario) GroundTruth(airtime []float64) *blueprint.Topology {
	t := &blueprint.Topology{N: len(s.UEs)}
	for k, set := range s.HiddenTerminalEdges() {
		if set.Empty() {
			continue
		}
		q := 0.5
		if airtime != nil {
			q = airtime[k]
		}
		if q <= 0 {
			continue
		}
		if q >= 1 {
			q = 1 - 1e-9
		}
		t.HTs = append(t.HTs, blueprint.HiddenTerminal{Q: q, Clients: set})
	}
	return t.Normalize()
}
