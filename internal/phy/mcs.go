package phy

import "math"

// MCS is an LTE modulation-and-coding-scheme index entry with the SNR it
// requires and the spectral efficiency it delivers.
type MCS struct {
	Index      int
	Name       string
	MinSNRdB   float64 // minimum post-processing SINR to decode at ~10% BLER
	Efficiency float64 // information bits per resource element
}

// mcsTable approximates the LTE CQI→MCS mapping (36.213 Table 7.2.3-1):
// QPSK through 64QAM with typical code rates.
var mcsTable = []MCS{
	{0, "QPSK 1/8", -6.0, 0.15},
	{1, "QPSK 1/5", -4.0, 0.23},
	{2, "QPSK 1/4", -2.0, 0.38},
	{3, "QPSK 1/3", 0.0, 0.60},
	{4, "QPSK 1/2", 2.0, 0.88},
	{5, "QPSK 2/3", 4.0, 1.18},
	{6, "16QAM 1/2", 6.0, 1.48},
	{7, "16QAM 3/5", 8.0, 1.91},
	{8, "16QAM 2/3", 10.0, 2.41},
	{9, "64QAM 3/5", 12.0, 2.73},
	{10, "64QAM 2/3", 14.0, 3.32},
	{11, "64QAM 3/4", 16.0, 3.90},
	{12, "64QAM 4/5", 18.0, 4.52},
	{13, "64QAM 5/6", 20.0, 5.12},
	{14, "64QAM 9/10", 22.0, 5.55},
}

// SelectMCS returns the highest MCS whose SNR requirement is satisfied,
// and ok=false when even the lowest MCS cannot decode.
func SelectMCS(sinrDB float64) (MCS, bool) {
	best := -1
	for i, m := range mcsTable {
		if sinrDB >= m.MinSNRdB {
			best = i
		}
	}
	if best < 0 {
		return MCS{}, false
	}
	return mcsTable[best], true
}

// LowestMCS returns the most robust MCS in the table; UL reference
// signals (pilots) are treated as decodable whenever this MCS would be.
func LowestMCS() MCS { return mcsTable[0] }

// LTE 10 MHz numerology (the carrier configuration used in the paper's
// testbed: 10 MHz, 50 RBs, 1 ms subframes).
const (
	// NumRB is the number of resource blocks in a 10 MHz LTE carrier.
	NumRB = 50
	// SubcarriersPerRB is the number of OFDM subcarriers per RB.
	SubcarriersPerRB = 12
	// SymbolsPerSubframe is the number of SC-FDMA symbols per 1 ms
	// subframe with normal cyclic prefix.
	SymbolsPerSubframe = 14
	// PilotSymbolsPerSubframe is the number of symbols consumed by UL
	// DMRS (one per slot).
	PilotSymbolsPerSubframe = 2
	// SubframeDuration is 1 ms expressed in microseconds.
	SubframeDurationUS = 1000
)

// DataREsPerRB returns the number of data resource elements per RB per
// subframe after removing pilot symbols.
func DataREsPerRB() int {
	return SubcarriersPerRB * (SymbolsPerSubframe - PilotSymbolsPerSubframe)
}

// MUMIMOStreamSINRdB derates a single-stream SINR for an M-antenna
// zero-forcing receiver resolving nstreams concurrent streams: the array
// loses (nstreams−1) degrees of freedom of diversity, modeled as a
// 10·log10((M−nstreams+1)/M) SNR penalty. nstreams must be in [1, M].
func MUMIMOStreamSINRdB(singleSINRdB float64, m, nstreams int) float64 {
	if nstreams <= 1 {
		return singleSINRdB
	}
	if nstreams > m {
		return math.Inf(-1) // unresolvable: more streams than antennas
	}
	penalty := 10 * math.Log10(float64(m-nstreams+1)/float64(m))
	return singleSINRdB + penalty
}
