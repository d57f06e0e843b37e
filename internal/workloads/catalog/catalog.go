// Package catalog is the single place a benchmark name resolves to a
// workloads.Workload. The CLI (wpsim, which also records traces from
// it) and the serving daemon (wpserved) both accept "suite/bench plus
// input-shape overrides" and must resolve them identically — a job
// submitted to the daemon has to build the exact instance a direct CLI
// run of the same parameters builds, or the byte-identity guarantee
// between the two is vacuous.
package catalog

import (
	"fmt"
	"strings"

	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

// Params are the input-shape overrides shared by every entry point.
// The zero value selects each suite's defaults; fields that do not
// apply to a suite (Scale on gap, N on specproxy) are ignored.
type Params struct {
	// N overrides the GAP graph vertex count (0 = default).
	N int
	// Degree overrides the GAP average out-degree (0 = default).
	Degree int
	// Kron selects the Kronecker (RMAT) generator for GAP inputs.
	Kron bool
	// Grid selects the 2D-grid (road-network-like) GAP input; takes
	// precedence over Kron, matching gap.Params.
	Grid bool
	// Seed overrides the deterministic input seed (0 = default).
	Seed uint64
	// Scale overrides the SPEC-proxy scale factor (0 = default).
	Scale float64
}

// Suites lists the known suite names in presentation order.
func Suites() []string { return []string{"gap", "specint", "specfp"} }

// Names lists the benchmark names of one suite (nil for an unknown
// suite), in each suite's canonical order.
func Names(suite string) []string {
	switch suite {
	case "gap":
		return gap.Names()
	case "specint", "specfp":
		var names []string
		for _, w := range pool(suite, specproxy.DefaultParams()) {
			names = append(names, w.Name)
		}
		return names
	default:
		return nil
	}
}

// Find resolves suite/bench with the given overrides applied on top of
// the suite's default parameters. Unknown suites and benchmarks return
// a descriptive error listing what exists.
func Find(suite, bench string, p Params) (workloads.Workload, error) {
	switch suite {
	case "gap":
		gp := gap.DefaultParams()
		if p.N > 0 {
			gp.N = p.N
		}
		if p.Degree > 0 {
			gp.Degree = p.Degree
		}
		if p.Seed != 0 {
			gp.Seed = p.Seed
		}
		gp.Kron = p.Kron
		gp.Grid = p.Grid
		w, ok := gap.ByName(bench, gp)
		if !ok {
			return workloads.Workload{}, fmt.Errorf("unknown gap benchmark %q (have %v)", bench, gap.Names())
		}
		return w, nil
	case "specint", "specfp":
		sp := specproxy.DefaultParams()
		if p.Seed != 0 {
			sp.Seed = p.Seed
		}
		if p.Scale > 0 {
			sp.Scale = p.Scale
		}
		for _, w := range pool(suite, sp) {
			if w.Name == bench {
				return w, nil
			}
		}
		return workloads.Workload{}, fmt.Errorf("unknown %s benchmark %q (have %v)", suite, bench, Names(suite))
	default:
		return workloads.Workload{}, fmt.Errorf("unknown suite %q (have %s)", suite, strings.Join(Suites(), ", "))
	}
}

// pool returns the specproxy workload slice for a suite.
func pool(suite string, p specproxy.Params) []workloads.Workload {
	if suite == "specfp" {
		return specproxy.FPSuite(p)
	}
	return specproxy.IntSuite(p)
}
