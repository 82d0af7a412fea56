package host

import (
	"encoding/json"
	"io"
)

// WriteJSON writes the run report as indented JSON (the -report-json flag
// of cmd/pimalign): every tagged Report field plus the derived
// host-overhead fraction, so downstream tooling (dashboards, regression
// checks) never re-implements the derivation.
func (r *Report) WriteJSON(w io.Writer) error {
	out := struct {
		Report
		HostOverheadFraction float64 `json:"host_overhead_fraction"`
	}{*r, r.HostOverheadFraction()}
	if out.Ranks == nil {
		out.Ranks = []RankStats{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
