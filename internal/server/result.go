package server

import (
	"encoding/json"

	"repro/internal/sim"
	"repro/internal/simerr"
)

// resultDoc is the deterministic rendering of a sim.Result: every
// simulated quantity, with the two host-dependent channels factored
// out. Wall time is reported beside the document (never inside it),
// and error values are flattened to their one-line messages so a panic
// fault's goroutine stack — host addresses and all — never enters the
// canonical bytes.
type resultDoc struct {
	WP  string `json:"wp"`
	Err string `json:"err,omitempty"`
	// Sim is the full result with Wall zeroed and Err nil'd (it is
	// rendered as the string above).
	Sim *sim.Result `json:"sim"`
}

// CanonicalResult renders a result as deterministic JSON: two runs of
// the same configuration produce byte-identical documents regardless
// of host timing, worker interleaving, or whether the run was served,
// resumed from a snapshot, or executed directly. This is the identity
// the acceptance tests (and make serve-smoke) diff.
func CanonicalResult(res *sim.Result) ([]byte, error) {
	c := *res
	c.Wall = 0
	c.Err = nil
	doc := resultDoc{
		WP:  res.WP.String(),
		Err: simerr.FirstLine(res.Err),
		Sim: &c,
	}
	return json.MarshalIndent(doc, "", "  ")
}
