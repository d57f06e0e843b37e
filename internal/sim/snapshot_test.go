package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/tracefile"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// snapshotsPath is the committed table of snapshot hashes: every file
// TestSnapshotHashes writes, keyed by group/technique/file name, and
// one combined hash per TestPipelinedMatchesInline cell.
var snapshotsPath = filepath.Join("testdata", "snapshots.json")

// snapshotTable is the layout of snapshotsPath.
type snapshotTable struct {
	// Files maps group/technique/file to the file's SHA-256.
	Files map[string]string `json:"files"`
	// Cells maps input/technique/lane to the SHA-256 over a cell's
	// result digest and its snapshots' hashes, in file-name order.
	Cells map[string]string `json:"cells"`
}

// readSnapshotTable loads the committed table; -update starts from the
// file as it is, so each test rewrites only its own half.
func readSnapshotTable(t *testing.T) snapshotTable {
	t.Helper()
	var tab snapshotTable
	data, err := os.ReadFile(snapshotsPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if err == nil {
		if err := json.Unmarshal(data, &tab); err != nil {
			t.Fatalf("parsing %s: %v", snapshotsPath, err)
		}
	}
	return tab
}

// writeSnapshotTable rewrites the committed table (-update only).
func writeSnapshotTable(t *testing.T, tab snapshotTable) {
	t.Helper()
	data, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fileHashes returns the SHA-256 of every snapshot in dir, keyed by
// prefix + file name.
func fileHashes(t *testing.T, dir, prefix string) map[string]string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[prefix+filepath.Base(name)] = hex.EncodeToString(sum[:])
	}
	return out
}

// compareHashes reports every key whose hash differs between got and
// want, and every key only one of them has.
func compareHashes(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s %s: no committed hash", what, k)
		} else if w != got[k] {
			t.Errorf("%s %s: sha256 %s, committed %s", what, k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s %s: committed but not written", what, k)
		}
	}
}

// TestSnapshotHashes pins snapshot bytes: gap bfs with n=4096 under
// every technique, 120k instructions, a snapshot every 40k, and the
// same bfs input at its default size recorded for 120k instructions and
// replayed under every technique but wpemul (§III-B), each at the
// default lane size and at lane size 1. These are the runs the verify
// notes' wpsim commands make (the default-lane files' hashes are the 27
// listed there), so a host-side change that must not move simulated
// state is held to every byte of every snapshot. -update rewrites the
// table, which only a stated model or snapshot-layout change may do.
func TestSnapshotHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 simulations of 120k instructions")
	}
	small, err := catalog.Find("gap", "bfs", catalog.Params{N: 4096})
	if err != nil {
		t.Fatal(err)
	}
	full, err := catalog.Find("gap", "bfs", catalog.Params{})
	if err != nil {
		t.Fatal(err)
	}
	const maxInsts, every = 120_000, 40_000
	inst := full.MustBuild()
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop), frontend.WithMaxInstructions(maxInsts))
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Record(fe, tw); err != nil {
		t.Fatal(err)
	}
	trace := buf.Bytes()
	traceSum := sha256.Sum256(trace)

	got := map[string]string{"trace.bin": hex.EncodeToString(traceSum[:])}
	for _, lane := range []int{core.DefaultBatch, 1} {
		for _, k := range wrongpath.Kinds() {
			for _, input := range []string{"gap", "trace"} {
				if input == "trace" && k == wrongpath.WPEmul {
					continue
				}
				group := fmt.Sprintf("%s/lane%d/%v/", input, lane, k)
				dir := t.TempDir()
				cfg := Config{Core: core.DefaultConfig(), WP: k, MaxInsts: maxInsts,
					CheckpointDir: dir, CheckpointEvery: every}
				cfg.Core.Batch = lane
				req := Request{Config: cfg, Workload: &small}
				if input == "trace" {
					// wpsim -replay runs the whole trace: no cap.
					cfg.MaxInsts = 0
					req = Request{Config: cfg, Trace: trace}
				}
				res, _, err := Execute(req)
				if err != nil || res.Err != nil {
					t.Fatalf("%s: %v, %v", group, err, res.Err)
				}
				hashes := fileHashes(t, dir, group)
				if len(hashes) != maxInsts/every {
					t.Fatalf("%s: %d snapshots, want %d", group, len(hashes), maxInsts/every)
				}
				for name, sum := range hashes {
					got[name] = sum
				}
			}
		}
	}
	tab := readSnapshotTable(t)
	if *update {
		tab.Files = got
		writeSnapshotTable(t, tab)
		return
	}
	compareHashes(t, "snapshot", got, tab.Files)
}
