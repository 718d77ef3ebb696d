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
			res.Bits[i] = c.bitsPerRBG * mcs.Efficiency
		}
		results[b] = res
	}
	return results
}

// RunDL drives a scheduler over downlink subframes [from, to) and
// aggregates metrics the same way Run does for the uplink.
func RunDL(c *Cell, s interface {
	Name() string
	Schedule(sf int) *lte.Schedule
	Observe(sf int, results []lte.RBResult)
}, from, to int) *Metrics {
	if from < 0 {
		from = 0
	}
	if to > c.cfg.Subframes {
		to = c.cfg.Subframes
	}
	m := &Metrics{
		Scheduler: s.Name(),
		BitsPerUE: make([]float64, c.numUE),
		Outcomes:  make(map[lte.Outcome]int),
	}
	executed := 0
	for sf := from; sf < to; sf++ {
		schedule := s.Schedule(sf)
		results := c.StepDL(sf, schedule)
		if results == nil {
			m.ENBDeferrals++
			s.Observe(sf, nil)
			m.Subframes++
			continue
		}
		granted, utilized, streams, grantedDoF := 0, 0, 0, 0
		for _, res := range results {
			if len(res.Scheduled) == 0 {
				continue
			}
			granted++
			grantedDoF += c.cfg.M
			if res.Utilized() {
				utilized++
			}
			streams += res.DecodedStreams()
			for i, ue := range res.Scheduled {
				m.Outcomes[res.Outcomes[i]]++
				m.BitsPerUE[ue] += res.Bits[i]
				m.TotalBits += res.Bits[i]
			}
		}
		m.RBUtilization += safeDiv(float64(utilized), float64(granted))
		m.DoFUtilization += safeDiv(float64(streams), float64(grantedDoF))
		if granted > 0 && utilized == granted {
			m.FullyUtilizedSubframes++
		}
		s.Observe(sf, results)
		m.Subframes++
		executed++
	}
	if executed > 0 {
		n := float64(executed)
		m.RBUtilization /= n
		m.DoFUtilization /= n
		m.FullyUtilizedSubframes /= n
	}
	if m.Subframes > 0 {
		m.ThroughputMbps = m.TotalBits / (float64(m.Subframes) * 1000)
	}
	m.JainFairness = jain(m.BitsPerUE)
	return m
}
