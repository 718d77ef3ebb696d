package experiments

import (
	"fmt"

	"blu/internal/faults"
	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/trace"
	"blu/internal/wifi"
)

// testbedCell builds a testbed-scale cell: nUE UEs around the eNB and
// nHT WiFi stations in their neighborhoods with randomized airtimes,
// matching the paper's enterprise testbed (Section 4.1).
func testbedCell(nUE, nHT, m, subframes int, seed uint64) (*sim.Cell, error) {
	return testbedCellDuty(nUE, nHT, m, subframes, seed, 0.25, 0.55, nil)
}

// testbedCellDuty is testbedCell with explicit hidden-terminal airtime
// bounds, controlling how much each terminal silences its UEs, and an
// optional fault scenario attached to the cell.
func testbedCellDuty(nUE, nHT, m, subframes int, seed uint64, dutyLo, dutyHi float64, sc *faults.Scenario) (*sim.Cell, error) {
	r := rng.New(seed)
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		// iperf-like UDP flows of varied intensity.
		stations[k].Traffic = wifi.DutyCycle{Target: dutyLo + (dutyHi-dutyLo)*r.Float64()}
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

// emulatedCell emulates the paper's 24-UE, 36-hidden-terminal
// networks (Section 4.2), with lighter airtimes than the raw testbed so
// the PF baseline operates near the paper's ~50% utilization point.
func emulatedCell(nUE, m, subframes int, seed uint64) (*sim.Cell, error) {
	return combinedCell(nUE, m, subframes, seed, 101, 0.2, 0.5)
}

// combinedCell builds a large trace-driven cell by recording
// testbed-scale runs and combining their traces: base cells of up to 8
// UEs with 1.5 hidden terminals per UE (airtimes in [dutyLo, dutyHi],
// seed + shift·step for the cell starting at UE shift) are concatenated
// until nUE clients exist, then replayed at MU-MIMO order m.
func combinedCell(nUE, m, subframes int, seed, step uint64, dutyLo, dutyHi float64) (*sim.Cell, error) {
	const baseUEs = 8
	var traces []*trace.Trace
	for shift := 0; shift < nUE; shift += baseUEs {
		ues := min(baseUEs, nUE-shift)
		cell, err := testbedCellDuty(ues, ues+ues/2, 1, subframes, seed+uint64(shift)*step, dutyLo, dutyHi, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: base cell: %w", err)
		}
		traces = append(traces, cell.Export(fmt.Sprintf("base-%d", shift)))
	}
	combined, err := trace.CombineUEs(traces...)
	if err != nil {
		return nil, fmt.Errorf("experiments: combine: %w", err)
	}
	return sim.NewFromTrace(combined, sim.ReplayConfig{M: m, K: 10})
}
