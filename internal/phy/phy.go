// Package phy models the physical layer the paper's WARP SDR testbed
// provides in hardware: sensing thresholds, indoor path loss with
// log-normal shadowing, block fading, and the SINR→MCS→rate mapping of a
// 10 MHz LTE carrier.
//
// BLU itself consumes only access outcomes and per-RB rates, so this
// abstraction level (no I/Q samples) exercises the same scheduler and
// inference code paths as the SDR testbed while remaining deterministic
// and fast.
package phy

import (
	"math"

	"blu/internal/rng"
)

// Power levels and sensing thresholds used throughout the paper
// (Section 2.2): WiFi preamble carrier sensing detects other WiFi at
// −85 dBm, while cross-technology energy detection only triggers in
// the −70..−65 dBm range.
const (
	// WiFiCSThresholdDBm is the 802.11 preamble-detection (carrier
	// sensing) threshold between WiFi nodes.
	WiFiCSThresholdDBm = -85.0
	// EnergyDetectThresholdDBm is the LAA/WiFi cross-technology energy
	// detection threshold at UEs and the eNB (the stricter −70 dBm end;
	// the paper quotes [−70, −65] dBm).
	EnergyDetectThresholdDBm = -70.0

	// DefaultTxPowerDBm is the transmit power used by WiFi stations and
	// LTE UEs in the enterprise scenarios (typical indoor 100 mW class,
	// backed off to 15 dBm as in dense enterprise deployments).
	DefaultTxPowerDBm = 15.0

	// ShadowSigmaDB is the log-normal shadowing deviation of generated
	// enterprise floors.
	ShadowSigmaDB = 6.0

	// NoiseFloorDBm is the thermal noise floor over 10 MHz
	// (−174 dBm/Hz + 10·log10(10e6) ≈ −104 dBm) plus a 6 dB noise figure.
	NoiseFloorDBm = -98.0
)

// PathLoss is an indoor propagation model producing loss in dB over a
// distance in meters.
type PathLoss interface {
	// LossDB returns the path loss in dB at distance d meters. The loss
	// must be non-decreasing in d.
	LossDB(d float64) float64
}

// LogDistance is the classic log-distance path-loss model
// PL(d) = PL(d0) + 10·n·log10(d/d0), the standard abstraction for
// enterprise indoor propagation (ITU indoor office uses n ≈ 3).
type LogDistance struct {
	RefLossDB float64 // loss at the reference distance d0
	RefDist   float64 // d0 in meters (typically 1 m)
	Exponent  float64 // path-loss exponent n
}

// IndoorOffice returns the indoor-office log-distance model used by the
// enterprise scenarios: 40 dB at 1 m and exponent 3.0.
func IndoorOffice() LogDistance {
	return LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 3.0}
}

// LossDB implements PathLoss. Distances below the reference distance are
// clamped to it.
func (l LogDistance) LossDB(d float64) float64 {
	if d < l.RefDist {
		d = l.RefDist
	}
	return l.RefLossDB + 10*l.Exponent*math.Log10(d/l.RefDist)
}

// Shadowing adds static, per-link log-normal shadowing (in dB) on top of
// a base model. Each link's shadowing is drawn once (slow fading): the
// draw for an ordered (a, b) index pair is deterministic given the seed
// source, and symmetric (a→b equals b→a).
type Shadowing struct {
	Base    PathLoss
	SigmaDB float64
	draws   map[[2]int]float64
	r       *rng.Source
}

// NewShadowing wraps base with log-normal shadowing of standard
// deviation sigmaDB, drawing link gains from r.
func NewShadowing(base PathLoss, sigmaDB float64, r *rng.Source) *Shadowing {
	return &Shadowing{Base: base, SigmaDB: sigmaDB, draws: make(map[[2]int]float64), r: r}
}

// LinkLossDB returns the shadowed loss between node indices a and b at
// distance d. The shadowing term is memoized per unordered pair.
func (s *Shadowing) LinkLossDB(a, b int, d float64) float64 {
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	sh, ok := s.draws[key]
	if !ok {
		sh = s.r.NormFloat64() * s.SigmaDB
		s.draws[key] = sh
	}
	return s.Base.LossDB(d) + sh
}

// RxPowerDBm returns received power for a transmission at txDBm over a
// link with the given loss.
func RxPowerDBm(txDBm, lossDB float64) float64 { return txDBm - lossDB }

// RicianFading is per-subframe block fading, a multiplicative SNR factor,
// with a dominant LOS component of the given K-factor (linear). Larger
// K approaches a static channel; K=0 is Rayleigh.
type RicianFading struct {
	K float64
}

// Gain returns a linear power gain for one coherence block using a
// two-path approximation: the power of a complex Gaussian around a
// fixed LOS phasor, normalized to unit mean.
func (f RicianFading) Gain(r *rng.Source) float64 {
	k := f.K
	if k < 0 {
		k = 0
	}
	// LOS amplitude sqrt(k/(k+1)), scatter variance 1/(k+1) split over I/Q.
	los := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	i := los + sigma*r.NormFloat64()
	q := sigma * r.NormFloat64()
	return i*i + q*q
}
