package sim

import (
	"blu/internal/lte"
	"blu/internal/phy"
)

// Downlink support for the Section 3.7 extension: on the DL the
// conflict between concurrency and asynchronous interference manifests
// as *collisions at the receiving UE* — a hidden terminal transmitting
// anywhere in the subframe corrupts that UE's reception, and the eNB
// cannot defer because it never hears the terminal. Over-scheduling
// transmissions is impossible (the eNB sends them itself), but
// access-aware scheduling (Eqn 5) driven by the blueprint steers DL
// allocations toward clients whose interferers are likely idle.

// DLCleanProb returns the fraction of subframes in which UE i's
// downlink is free of hidden-terminal energy — the DL analogue of the
// access probability (it is lower than p(i) because the whole 1 ms
// subframe is exposed rather than a 25 µs CCA window).
func (c *Cell) DLCleanProb(i int) float64 {
	clean := 0
	for sf := 0; sf < c.cfg.Subframes; sf++ {
		if !c.dlInterfered[sf].Has(i) {
			clean++
		}
	}
	return float64(clean) / float64(c.cfg.Subframes)
}

// StepDL executes downlink subframe sf under the given allocation: the
// eNB transmits up to M streams per RB unit; a scheduled UE whose
// subframe is hit by hidden-terminal energy loses its transport block
// (classified OutcomeCollision — the DL counterpart of the paper's
// §2.2 observation), otherwise reception follows the channel as on UL.
// The eNB's own LBT still gates the TxOP.
func (c *Cell) StepDL(sf int, schedule *lte.Schedule) []lte.RBResult {
	if sf < 0 || sf >= c.cfg.Subframes {
		return nil
	}
	if !c.enbClear[sf] {
		return nil
	}
	interfered := c.dlInterfered[sf]
	results := make([]lte.RBResult, len(schedule.RB))
	for b, ues := range schedule.RB {
		if len(ues) == 0 {
			continue
		}
		res := lte.RBResult{
			Scheduled: ues,
			Outcomes:  make([]lte.Outcome, len(ues)),
			Bits:      make([]float64, len(ues)),
		}
		// The eNB transmits at most M streams; extra entries (there
		// should be none — DL cannot over-schedule) are dropped.
		ntx := len(ues)
		if ntx > c.cfg.M {
			ntx = c.cfg.M
		}
		for i, ue := range ues {
			if i >= ntx {
				res.Outcomes[i] = lte.OutcomeIdle
				continue
			}
			if interfered.Has(ue) {
				res.Outcomes[i] = lte.OutcomeCollision
				continue
			}
			mcs, ok := c.scheduledMCS(ue, b)
			if !ok {
				res.Outcomes[i] = lte.OutcomeFading
				continue
			}
			eff := phy.MUMIMOStreamSINRdB(c.snrDB[ue][b]+c.fadeDB[ue][sf], c.cfg.M, ntx)
			if eff < mcs.MinSNRdB {
				res.Outcomes[i] = lte.OutcomeFading
				continue
			}
			res.Outcomes[i] = lte.OutcomeSuccess
			res.Bits[i] = bitsPerRBG * mcs.Efficiency
		}
		results[b] = res
	}
	return results
}

// RunDL drives a scheduler over downlink subframes [from, to) and
// aggregates metrics the same way Run does for the uplink.
func RunDL(c *Cell, s stepScheduler, from, to int) *Metrics {
	return run(c, s, from, to, nil, c.StepDL)
}
