package experiments

import (
	"slices"
	"strings"

	"blu/internal/core"
	"blu/internal/faults"
	"blu/internal/sim"
)

// chaosSweep is the fault-injection matrix: for every selected fault
// scenario a faulted 4-UE testbed cell, the native-PF floor over the
// whole horizon, then the full BLU controller — confidence gate,
// degradation ladder, quarantine, retries — on the same cell. Short
// cycles (L = horizon/6) make the run cross the fault window several
// times: degrade inside it, recover after it.
func chaosSweep(o Options) *sweep {
	const nUE, hPerUE, m = 4, 2, 1
	sfs := o.scaled(9000, 1800)
	names := chaosScenarios(o)
	return &sweep{
		points: len(names),
		seed:   func(x, _ int) uint64 { return o.Seed + uint64(x)*101 },
		cell: func(x int, seed uint64) (*sim.Cell, error) {
			sc, err := faults.Preset(names[x], sfs)
			if err != nil {
				return nil, err
			}
			return testbedCellDuty(nUE, hPerUE*nUE, m, sfs, seed, 0.25, 0.55, &sc)
		},
		subframes: sfs,
		arms:      []arm{pf, controller(sfs / 6)},
	}
}

// chaosScenarios is the selected fault presets, all of them by default.
func chaosScenarios(o Options) []string {
	if o.Faults == "" {
		return faults.Names()
	}
	names := strings.Split(o.Faults, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

// chaosTable reports, per fault scenario, the throughput ratio against
// PF (the graceful-degradation criterion is ratio ≥ 0.95 under every
// fault), how often the gate tripped, the deepest ladder rung used, and
// how many cycles after the fault window the controller needed to
// climb back to speculative scheduling.
func chaosTable(o Options, res *result) *Table {
	t := &Table{
		ID:    "chaos",
		Title: "graceful degradation under injected faults (testbed, 4 UEs)",
		Columns: []string{
			"scenario", "pf_mbps", "blu_mbps", "ratio",
			"gate_trips", "max_ladder", "quarantined", "recovered_cycle",
		},
		claims: []claim{
			{"graceful", "BLU ≥ 0.95× PF under every fault",
				func(t *Table) float64 { return slices.Min(t.col("ratio")) - 0.95 }},
			{"recovers", "the controller returns to speculative scheduling after every fault (recovered_cycle ≥ 1)",
				func(t *Table) float64 { return slices.Min(t.col("recovered_cycle")) - 1 }},
		},
	}
	for x, name := range chaosScenarios(o) {
		pf, blu := res.at(x, 0), res.at(x, 1)
		trips, quarantined, maxLadder, recovered := summarizeLadder(blu.report, blu.faultEnd)
		t.AddRow(name, pf.ThroughputMbps, blu.ThroughputMbps, ratio(blu.ThroughputMbps, pf.ThroughputMbps),
			trips, maxLadder.String(), quarantined, recovered)
	}
	return t
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
