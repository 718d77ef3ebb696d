package experiments

import (
	"fmt"

	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/trace"
	"blu/internal/wifi"
)

// testbedCell builds a testbed-scale cell: nUE UEs around the eNB and
// nHT WiFi stations in their neighborhoods with randomized airtimes,
// matching the paper's enterprise testbed (Section 4.1).
func testbedCell(nUE, nHT, m, subframes int, seed uint64) (*sim.Cell, error) {
	return testbedCellDuty(nUE, nHT, m, subframes, seed, 0.25, 0.55)
}

// testbedCellDuty is testbedCell with explicit hidden-terminal airtime
// bounds, controlling how much each terminal silences its UEs.
func testbedCellDuty(nUE, nHT, m, subframes int, seed uint64, dutyLo, dutyHi float64) (*sim.Cell, error) {
	r := rng.New(seed)
	stations := make([]wifi.Station, nHT)
	for k := range stations {
		// iperf-like UDP flows of varied intensity.
		stations[k].Traffic = wifi.DutyCycle{Target: dutyLo + (dutyHi-dutyLo)*r.Float64()}
		stations[k].Rate = wifi.RateForSNR(12 + 14*r.Float64())
	}
	sc, err := sim.NewTestbedScenario(nUE, nHT, seed)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{
		Scenario:  sc,
		Stations:  stations,
		M:         m,
		Subframes: subframes,
		Seed:      r.Uint64(),
	})
}

// emulatedCell builds a large trace-driven cell by recording
// testbed-scale runs and combining their traces (Section 4.2): smaller
// UE topologies are concatenated until nUE clients exist, emulating the
// paper's 24-UE, 36-hidden-terminal networks.
func emulatedCell(nUE, m, subframes int, seed uint64) (*sim.Cell, error) {
	const baseUEs = 8
	var traces []*trace.Trace
	for shift := 0; shift < nUE; shift += baseUEs {
		ues := min(baseUEs, nUE-shift)
		hts := ues + ues/2 // 1.5 hidden terminals per UE
		// Lighter airtimes than the raw testbed so the PF baseline
		// operates near the paper's ~50% utilization point.
		cell, err := testbedCellDuty(ues, hts, 1, subframes, seed+uint64(shift)*101, 0.2, 0.5)
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

// simFromTrace replays a combined trace with the defaults the
// inference experiments use.
func simFromTrace(tr *trace.Trace) (*sim.Cell, error) {
	return sim.NewFromTrace(tr, sim.ReplayConfig{M: 1, K: 10})
}
