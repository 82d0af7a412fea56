package baseline

// ServerModel is a calibrated throughput model of one of the paper's CPU
// evaluation servers running the minimap2/KSW2 N&W kernel. The figures are
// back-derived from the paper's own tables with cells = pairs · m · band
// (the paper counts "band size" as cells per row on both architectures:
// Table 3 calls CPU band 256 "twice the cells" of DPU band 128); see
// EXPERIMENTS.md "Cost model calibration". E.g. the Intel 4215 aligns
// S1000 (10M pairs x 1000 rows x 128 = 1.28e12 cells) in 294 s ⇒ ~4.4e9
// cells/s, S30000 at 4.65e9, and the score-only 16S dataset at ~6.1e9
// (no traceback matrix to fill or walk).
type ServerModel struct {
	Name  string
	Cores int
	// TBCellsPerSec is the aggregate DP-cell throughput with traceback
	// (the S-datasets and PacBio columns).
	TBCellsPerSec float64
	// ScoreCellsPerSec is the aggregate throughput score-only (16S).
	ScoreCellsPerSec float64
}

// The paper's two CPU configurations (§5).
var (
	// Xeon4215 is the dual-socket Intel Xeon Silver 4215 server: 32 cores
	// at 2.5 GHz, 11 MB L3 — the same CPUs as in the PiM server, and the
	// baseline all speedups are quoted against.
	Xeon4215 = ServerModel{
		Name:             "Minimap2 Intel 4215 (32c)",
		Cores:            32,
		TBCellsPerSec:    4.4e9,
		ScoreCellsPerSec: 6.1e9,
	}
	// Xeon4216 is the dual-socket Intel Xeon Silver 4216 server: 64 cores
	// at 2.1 GHz, 22 MB L3. Its larger L3 helps the band-sized working
	// sets of S10000 most (the paper's surprising 2x there).
	Xeon4216 = ServerModel{
		Name:             "Minimap2 Intel 4216 (64c)",
		Cores:            64,
		TBCellsPerSec:    6.2e9,
		ScoreCellsPerSec: 1.03e10,
	}
)

// Seconds maps a cell count onto the modelled server.
func (m ServerModel) Seconds(cells int64, traceback bool) float64 {
	rate := m.ScoreCellsPerSec
	if traceback {
		rate = m.TBCellsPerSec
	}
	return float64(cells) / rate
}
