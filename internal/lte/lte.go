// Package lte models the LTE Release-10 uplink machinery BLU runs on:
// subframes and resource blocks, transmission opportunities (TxOPs) with
// LAA listen-before-talk at the eNB, uplink grants, UE-side clear
// channel assessment, and the eNB's receive/decode pipeline including
// the pilot-based loss classification of Section 3.3.
//
// The paper implements this on WARPv3 SDRs with the MATLAB LTE toolbox;
// here the same protocol state machines run against a simulated channel
// (see internal/phy), which preserves every behaviour BLU depends on:
// grants that may go unused, collisions when more than M streams arrive,
// and the eNB's ability to distinguish hidden-terminal blocking from
// collision from fading using orthogonal DMRS pilots.
package lte

import (
	"fmt"

	"blu/internal/phy"
)

// DefaultK is the maximum number of distinct UEs schedulable in one
// subframe, limited by control signaling (Section 3.3, K < 10).
const DefaultK = 8

// Grant is one uplink scheduling grant: UE ue may transmit on resource
// block rb of uplink subframe sf. Over-scheduling issues several grants
// for the same (sf, rb).
type Grant struct {
	UE int
	RB int
	SF int
}

// String implements fmt.Stringer.
func (g Grant) String() string { return fmt.Sprintf("grant{ue=%d rb=%d sf=%d}", g.UE, g.RB, g.SF) }

// Schedule is the uplink allocation of one subframe: for every RB (or RB
// group), the list of UEs granted on it. Multiple UEs on one entry is
// MU-MIMO (up to M) or BLU over-scheduling (up to f·M).
type Schedule struct {
	// RB[b] lists the UEs granted resource block b.
	RB [][]int
}

// NewSchedule returns an empty schedule over nrb resource blocks.
func NewSchedule(nrb int) *Schedule {
	return &Schedule{RB: make([][]int, nrb)}
}

// DistinctUEs returns the number of distinct UEs appearing anywhere in
// the schedule (the quantity limited by K).
func (s *Schedule) DistinctUEs() int {
	seen := make(map[int]bool)
	for _, ues := range s.RB {
		for _, u := range ues {
			seen[u] = true
		}
	}
	return len(seen)
}

// Validate checks UE indices are non-negative and the distinct-UE limit
// k is respected (k <= 0 disables the check).
func (s *Schedule) Validate(k int) error {
	for b, ues := range s.RB {
		for _, u := range ues {
			if u < 0 {
				return fmt.Errorf("lte: negative UE index %d on RB %d", u, b)
			}
		}
	}
	if k > 0 {
		if got := s.DistinctUEs(); got > k {
			return fmt.Errorf("lte: schedule uses %d distinct UEs, control limit is %d", got, k)
		}
	}
	return nil
}

// Outcome classifies what the eNB observed on one RB of one UL subframe
// for one scheduled UE, using the Section 3.3 rules.
type Outcome int

// Outcome values.
const (
	// OutcomeIdle: the RB carried no scheduled UE at all.
	OutcomeIdle Outcome = iota
	// OutcomeBlocked: no UL signal (not even the pilot) from the UE —
	// the UE's CCA failed because a hidden terminal was transmitting.
	OutcomeBlocked
	// OutcomeCollision: the UE's orthogonal pilot was received but more
	// than M streams arrived on the RB, so no data could be resolved.
	OutcomeCollision
	// OutcomeFading: the pilot was received and streams were resolvable,
	// but this UE's data SINR fell below its MCS threshold.
	OutcomeFading
	// OutcomeSuccess: the UE's data decoded.
	OutcomeSuccess
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeIdle:
		return "idle"
	case OutcomeBlocked:
		return "blocked"
	case OutcomeCollision:
		return "collision"
	case OutcomeFading:
		return "fading"
	case OutcomeSuccess:
		return "success"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RBResult is the eNB's receive result for one RB of one UL subframe.
type RBResult struct {
	// Scheduled lists the UEs granted on the RB.
	Scheduled []int
	// Outcomes[i] classifies Scheduled[i]'s transmission.
	Outcomes []Outcome
	// Bits[i] is the payload delivered by Scheduled[i] (0 unless
	// success).
	Bits []float64
}

// Utilized reports whether the RB carried at least one decoded stream.
func (r *RBResult) Utilized() bool {
	for _, o := range r.Outcomes {
		if o == OutcomeSuccess {
			return true
		}
	}
	return false
}

// DecodedStreams returns the number of successfully decoded streams.
func (r *RBResult) DecodedStreams() int {
	n := 0
	for _, o := range r.Outcomes {
		if o == OutcomeSuccess {
			n++
		}
	}
	return n
}

// Receive runs the eNB's receive pipeline for one RB given which
// scheduled UEs transmitted and each transmitter's channel this
// subframe.
//
//   - scheduled: UEs granted the RB.
//   - transmitted[i]: whether scheduled[i] passed CCA and transmitted.
//   - mcs[i]: the MCS the grant assigned scheduled[i] (chosen by the
//     eNB from its average channel estimate — it cannot know the
//     instantaneous fade).
//   - sinrDB[i]: scheduled[i]'s actual single-stream receive SINR this
//     subframe, including fading (ignored for non-transmitters).
//   - m: eNB antennas (max resolvable streams).
//   - bitsPerRE: payload bits carried per resource element per unit of
//     MCS efficiency; pass phy.DataREsPerRB() scaled by the RB-unit
//     width.
//
// Pilots of over-scheduled UEs are orthogonal, so the eNB always knows
// who transmitted; with more than m transmitters nothing is resolvable
// (collision), otherwise each stream decodes iff its MU-MIMO-derated
// SINR meets the scheduled MCS's requirement; a short fade below it is
// a fading loss, distinguishable from blocking and collision by the
// Section 3.3 pilot rules.
func Receive(scheduled []int, transmitted []bool, mcs []phy.MCS, sinrDB []float64, m int, bitsPerRE float64) RBResult {
	res := RBResult{
		Scheduled: scheduled,
		Outcomes:  make([]Outcome, len(scheduled)),
		Bits:      make([]float64, len(scheduled)),
	}
	ntx := 0
	for _, tx := range transmitted {
		if tx {
			ntx++
		}
	}
	for i := range scheduled {
		switch {
		case !transmitted[i]:
			res.Outcomes[i] = OutcomeBlocked
		case ntx > m:
			res.Outcomes[i] = OutcomeCollision
		default:
			eff := phy.MUMIMOStreamSINRdB(sinrDB[i], m, ntx)
			if eff < mcs[i].MinSNRdB {
				res.Outcomes[i] = OutcomeFading
				continue
			}
			res.Outcomes[i] = OutcomeSuccess
			res.Bits[i] = bitsPerRE * mcs[i].Efficiency
		}
	}
	return res
}
