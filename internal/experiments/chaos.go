package experiments

import (
	"strings"

	"blu/internal/core"
	"blu/internal/faults"
	"blu/internal/rng"
	"blu/internal/sched"
	"blu/internal/sim"
	"blu/internal/wifi"
)

// Chaos runs the fault-injection matrix: for every selected fault
// scenario it builds a faulted testbed cell, measures the native-PF
// floor over the whole horizon, then runs the full BLU controller —
// confidence gate, degradation ladder, quarantine, retries — on the
// same cell. The row reports the throughput ratio against PF (the
// graceful-degradation criterion is ratio ≥ 0.95 under every fault),
// how often the gate tripped, the deepest ladder rung used, and how
// many cycles after the fault window the controller needed to climb
// back to speculative scheduling.
func Chaos(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:    "chaos",
		Title: "graceful degradation under injected faults (testbed, 4 UEs)",
		Columns: []string{
			"scenario", "pf_mbps", "blu_mbps", "ratio",
			"gate_trips", "max_ladder", "quarantined", "recovered_cycle",
		},
		Notes: []string{
			"shape: ratio >= 0.95 under every fault; recovered_cycle is the post-fault cycle that returned to speculative (1 = first, -1 = never)",
		},
	}
	scenarios := faults.Names()
	if opts.Faults != "" {
		scenarios = strings.Split(opts.Faults, ",")
	}
	const nUE, hPerUE, m = 4, 2, 1
	sfs := opts.scaled(9000, 1800)

	type chaosRow struct {
		pf, blu            float64
		trips, quarantined int
		maxLadder          core.LadderLevel
		recovered          int
	}
	rows := make([]chaosRow, len(scenarios))
	err := opts.forEachTrial(len(scenarios), func(i int) error {
		name := strings.TrimSpace(scenarios[i])
		sc, err := faults.Preset(name, sfs)
		if err != nil {
			return err
		}
		seed := opts.Seed + uint64(i)*101
		cell, err := chaosCell(nUE, hPerUE*nUE, m, sfs, seed, &sc)
		if err != nil {
			return err
		}
		pf, err := sched.NewPF(cell.Env())
		if err != nil {
			return err
		}
		pfm := sim.Run(cell, pf, 0, sfs, nil)

		// Short cycles (L = horizon/6) so the run crosses the fault
		// window several times: degrade inside it, recover after it.
		sys, err := core.NewSystem(core.Config{T: 40, L: sfs / 6}, cell)
		if err != nil {
			return err
		}
		rep, err := sys.Run()
		if err != nil {
			return err
		}
		_, faultEnd := cell.Faults().Window()
		r := &rows[i]
		r.pf, r.blu = pfm.ThroughputMbps, rep.Speculative.ThroughputMbps
		r.trips, r.quarantined, r.maxLadder, r.recovered = summarizeLadder(rep, faultEnd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range scenarios {
		r := &rows[i]
		ratio := 0.0
		if r.pf > 0 {
			ratio = r.blu / r.pf
		}
		t.AddRow(strings.TrimSpace(name), r.pf, r.blu, ratio,
			r.trips, r.maxLadder.String(), r.quarantined, r.recovered)
	}
	return t, nil
}

// chaosCell is the testbed cell with a fault scenario attached.
func chaosCell(nUE, nHT, m, subframes int, seed uint64, sc *faults.Scenario) (*sim.Cell, error) {
	r := rng.New(seed)
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		stations[k].Traffic = wifi.DutyCycle{Target: 0.25 + 0.3*r.Float64()}
		stations[k].Rate = wifi.RateForSNR(12 + 14*r.Float64())
	}
	scenario, err := sim.NewTestbedScenario(nUE, nHT, seed)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{
		Scenario:  scenario,
		Stations:  stations,
		M:         m,
		Subframes: subframes,
		Faults:    sc,
		Seed:      r.Uint64(),
	})
}

// summarizeLadder extracts the ladder trajectory from a report: total
// gate trips, quarantined pairs, the deepest rung used, and which
// scheduling cycle after faultEnd first ran speculative again (1-based;
// -1 = never; 0 = no post-fault cycles existed).
func summarizeLadder(rep *core.Report, faultEnd int) (trips, quarantined int, maxLadder core.LadderLevel, recovered int) {
	sf := 0
	postFault := 0
	recovered = 0
	for _, ph := range rep.Phases {
		start := sf
		sf += ph.Subframes
		if ph.Kind != core.PhaseSpeculative {
			continue
		}
		if ph.GateTripped {
			trips++
		}
		quarantined += ph.QuarantinedPairs
		if ph.Ladder > maxLadder {
			maxLadder = ph.Ladder
		}
		if start >= faultEnd && recovered <= 0 {
			postFault++
			if ph.Ladder == core.LadderSpeculative {
				recovered = postFault
			}
		}
	}
	if recovered == 0 && postFault > 0 {
		recovered = -1
	}
	return trips, quarantined, maxLadder, recovered
}
