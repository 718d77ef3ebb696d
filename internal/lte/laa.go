package lte

import "blu/internal/rng"

// LBT implements the LAA category-4 listen-before-talk procedure the
// eNB runs before seizing a TxOP, and the single-shot CCA UEs run before
// using an uplink grant (3GPP 36.213 §15, MulteFire UL access).
type LBT struct {
	// ThresholdDBm is the energy-detection threshold.
	ThresholdDBm float64
	// CWMin/CWMax bound the contention window in 9 µs eCCA slots.
	CWMin, CWMax int

	cw int
}

// NewLBT returns a category-4 LBT engine with the given ED threshold
// and the priority-class-3 contention window (15..63).
func NewLBT(thresholdDBm float64) *LBT {
	return &LBT{ThresholdDBm: thresholdDBm, CWMin: 15, CWMax: 63, cw: 15}
}

// Defer doubles the contention window after a failed TxOP (collision
// feedback), saturating at CWMax.
func (l *LBT) Defer() {
	l.cw = l.cw*2 + 1
	if l.cw > l.CWMax {
		l.cw = l.CWMax
	}
}

// Reset restores the contention window after a successful TxOP.
func (l *LBT) Reset() { l.cw = l.CWMin }

// DrawBackoffSlots draws the random backoff counter for the next
// channel access attempt.
func (l *LBT) DrawBackoffSlots(r *rng.Source) int { return r.Intn(l.cw + 1) }

// ClearAt reports whether a CCA passes given the aggregate interference
// energy (dBm) observed at the sensing node.
func (l *LBT) ClearAt(energyDBm float64) bool { return energyDBm < l.ThresholdDBm }

// UECCAWindowUS is the length of the single-shot clear-channel
// assessment a UE performs immediately before transmitting on an uplink
// grant: a 25 µs observation; if the energy exceeds the threshold the UE
// abandons the grant (it cannot defer into someone else's scheduled
// subframe).
const UECCAWindowUS = 25
