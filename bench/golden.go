package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/cache"
	"repro/internal/sim"
)

// digest hashes a fixed list of sim.Result statistics. The list is
// spelled out rather than reflected so that adding a field to Result
// does not change every digest; a change to any listed statistic is a
// change to the model and must come with a stated reason.
func digest(r *sim.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	put(uint64(r.WP))
	c := r.Core
	put(c.Instructions, c.Cycles, c.CondBranches, c.CondMispredicted, c.IndirectJumps,
		c.IndirectMispredicted, c.Returns, c.ReturnMispredicted, c.Mispredicts, c.WPFetched,
		c.WPExecuted, c.WPLoads, c.WPLoadsWithAddr, c.LoadForwards, c.Serializations)
	p := r.Policy
	put(p.Mispredicts, p.WPGenerated, p.ConvChecked, p.ConvDetected, p.ConvDistSum,
		p.ConvMatchLenSum, p.WPMemOps, p.WPAddrRecovered)
	for _, l := range []cache.LevelStats{r.L1I, r.L1D, r.L2, r.LLC, r.ITLB, r.DTLB} {
		put(l.Correct.Accesses, l.Correct.Misses, l.Wrong.Accesses, l.Wrong.Misses, l.Writebacks)
	}
	put(r.MemAccesses, r.WrongMemAccesses, r.FunctionalInsts, r.WPEmulatedPaths, r.WPEmulatedInsts)
	h.Write(r.Output)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenSeeds are the seeds whose digests are committed.
var goldenSeeds = []uint64{1, 2, 3}

// golden is bench/golden/<workload>.json: per seed, the digest of every
// (input, technique) cell of the sim phase described by Plan.
type golden struct {
	Plan  string                       `json:"plan"`
	Seeds map[string]map[string]string `json:"seeds"`
}

//go:embed golden
var goldenFS embed.FS

// loadGolden returns the committed digests of one seed, or nil when the
// seed has none or the plan differs from the committed one.
func loadGolden(p plan, seed uint64) (map[string]string, error) {
	data, err := goldenFS.ReadFile("golden/" + p.name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden for %s: %w", p.name, err)
	}
	if g.Plan != p.sim.describe() {
		return nil, nil
	}
	return g.Seeds[strconv.FormatUint(seed, 10)], nil
}

// updateGolden runs one untimed rep of the sim phase for every golden
// seed and rewrites dir/<workload>.json.
func updateGolden(p plan, dir string) error {
	g := golden{Plan: p.sim.describe(), Seeds: map[string]map[string]string{}}
	for _, seed := range goldenSeeds {
		ws, err := p.sim.workloadsFor(seed)
		if err != nil {
			return err
		}
		d := map[string]string{}
		for _, w := range ws {
			for _, k := range techniques {
				c, err := runCell(w, k, p.sim.maxInsts, cellOpts{})
				if err != nil {
					return err
				}
				d[cellKey(w.Name, k)] = c.digest
			}
		}
		g.Seeds[strconv.FormatUint(seed, 10)] = d
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, p.name+".json"), append(data, '\n'), 0o644)
}
