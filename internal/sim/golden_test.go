package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
	"repro/internal/wrongpath"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current model")

// goldenWarmup is the warm cells' WarmupInsts: long enough to cross
// many mispredicts (under wpemul, each one a wrong path the core takes
// and discards during warmup), short of every input's run length.
const goldenWarmup = 5_000

// goldenDigest hashes the simulated statistics of a Result: the same
// fixed field list as the benchmark module's digest, Output included.
// The list is spelled out rather than reflected so that adding a field
// to Result does not move every digest.
func goldenDigest(r *Result) string {
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

// goldenInputs returns the golden plan's workloads: four GAP kernels on
// a uniform graph, bfs on a Kronecker graph, two SPEC-INT proxies (one
// whose mispredicts never reconverge, one whose do) and one SPEC-FP
// proxy, all at test scale.
func goldenInputs(t *testing.T) []workloads.Workload {
	t.Helper()
	var ws []workloads.Workload
	for _, name := range []string{"bfs", "cc", "sssp", "pr"} {
		w, ok := gap.ByName(name, gap.TestParams())
		if !ok {
			t.Fatalf("gap kernel %q missing", name)
		}
		ws = append(ws, w)
	}
	kp := gap.TestParams()
	kp.Kron = true
	kron := gap.BFS(kp)
	kron.Name = "bfs-kron"
	ws = append(ws, kron)
	pick := func(suite []workloads.Workload, names ...string) {
		for _, name := range names {
			found := false
			for _, w := range suite {
				if w.Name == name {
					ws = append(ws, w)
					found = true
				}
			}
			if !found {
				t.Fatalf("spec proxy %q missing", name)
			}
		}
	}
	pick(specproxy.IntSuite(specproxy.TestParams()), "treewalk", "hashtab")
	pick(specproxy.FPSuite(specproxy.TestParams()), "stencil1d")
	return ws
}

// TestGoldenDigests pins every simulated statistic of a small plan:
// every technique on each golden input, and every technique but wpemul
// (§III-B: a trace holds no wrong paths) on a recorded trace, each run
// cold and with a warmup phase. A changed digest is a changed model; a
// refactor must leave the file untouched, and a model change
// regenerates it with -update and states its reason.
func TestGoldenDigests(t *testing.T) {
	type cell struct {
		key string
		req Request
	}
	var cells []cell
	add := func(input string, req Request) {
		for _, warm := range []uint64{0, goldenWarmup} {
			r := req
			r.Config.WarmupInsts = warm
			phase := "cold"
			if warm > 0 {
				phase = "warm"
			}
			cells = append(cells, cell{fmt.Sprintf("%s/%s/%s", input, r.Config.WP, phase), r})
		}
	}
	for _, w := range goldenInputs(t) {
		for _, k := range wrongpath.Kinds() {
			add(w.Suite+"/"+w.Name, Request{Config: Default(k), Workload: &w})
		}
	}
	tr := recordTrace(t)
	for _, k := range wrongpath.Kinds() {
		if k != wrongpath.WPEmul {
			add("trace/bfs", Request{Config: Default(k), Trace: tr})
		}
	}

	got := map[string]string{}
	for _, c := range cells {
		res, _, err := Execute(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: run faulted: %v", c.key, res.Err)
		}
		got[c.key] = goldenDigest(res)
	}

	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no golden digest", k)
		} else if w != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden cell no longer runs", k)
		}
	}
}
