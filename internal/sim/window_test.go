package sim

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// windowProbe wraps a policy and records the deepest end (start plus
// returned length) of every Context.Window the policy asks for.
type windowProbe struct {
	wrongpath.Policy
	deepest int
}

func (p *windowProbe) Begin(ctx *wrongpath.Context, br *trace.DynInst, target uint64) []trace.DynInst {
	probed := *ctx
	probed.Window = func(i, n int) []trace.DynInst {
		w := ctx.Window(i, n)
		p.deepest = max(p.deepest, i+len(w))
		return w
	}
	return p.Policy.Begin(&probed, br, target)
}

// TestWindowWithinLookahead pins the bound the queue's fixed size rests
// on: every window conv, convres and the no-check conv ablation ask
// for ends by 2×ROB + FrontendBuffer (detection peeks at most ROBSize
// deep, the walks at most one wrong-path cap further), which lies below
// the lookahead. A policy that peeked deeper could run past the ring's
// capacity and silently read an empty window; this test fails first.
func TestWindowWithinLookahead(t *testing.T) {
	policies := []struct {
		name      string
		kind      wrongpath.Kind
		newPolicy func() wrongpath.Policy
	}{
		{"conv", wrongpath.Conv, func() wrongpath.Policy { return wrongpath.New(wrongpath.Conv) }},
		{"convres", wrongpath.ConvResolve, func() wrongpath.Policy { return wrongpath.New(wrongpath.ConvResolve) }},
		{"conv-nocheck", wrongpath.Conv, func() wrongpath.Policy {
			p := wrongpath.NewConv()
			p.DisableIndependenceCheck = true
			return p
		}},
	}
	inputs := []struct{ suite, bench string }{
		{"gap", "bfs"}, {"gap", "cc"}, {"gap", "sssp"},
		{"specint", "hashtab"}, {"specint", "treewalk"},
	}
	for _, rob := range []int{128, 512} {
		cfg := Default(wrongpath.Conv)
		cfg.Core.ROBSize = rob
		cfg.MaxInsts = 60_000
		bound := 2*rob + cfg.Core.FrontendBuffer
		if bound >= cfg.lookahead() {
			t.Fatalf("rob %d: bound %d not below the lookahead %d", rob, bound, cfg.lookahead())
		}
		for _, in := range inputs {
			w, err := catalog.Find(in.suite, in.bench, catalog.Params{N: 4096, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies {
				probe := &windowProbe{}
				c := cfg
				c.WP = pol.kind
				c.PolicyFactory = func() wrongpath.Policy {
					probe.Policy = pol.newPolicy()
					return probe
				}
				if _, err := Run(c, w.MustBuild()); err != nil {
					t.Fatal(err)
				}
				if probe.deepest == 0 || probe.deepest > bound {
					t.Errorf("rob %d %s/%s %s: deepest window end %d, want 1..%d",
						rob, in.suite, in.bench, pol.name, probe.deepest, bound)
				}
			}
		}
	}
}
