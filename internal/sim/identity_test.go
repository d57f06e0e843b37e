package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// step is one hop from Config to a leaf: a struct field, or a map
// entry (field < 0).
type step struct {
	name  string
	field int
	key   reflect.Value
}

func pathOf(steps []step) string {
	var b strings.Builder
	for i, s := range steps {
		if s.field < 0 {
			fmt.Fprintf(&b, "[%s]", s.name)
			continue
		}
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(s.name)
	}
	return b.String()
}

// collectLeaves lists the path to every leaf under v, visiting each map
// entry, and records every struct-field path (leaf or not) in nodes.
func collectLeaves(v reflect.Value, path []step, leaves *[][]step, nodes map[string]bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p := append(append([]step(nil), path...), step{name: v.Type().Field(i).Name, field: i})
			nodes[pathOf(p)] = true
			collectLeaves(v.Field(i), p, leaves, nodes)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			p := append(append([]step(nil), path...), step{name: fmt.Sprint(k), field: -1, key: k})
			collectLeaves(v.MapIndex(k), p, leaves, nodes)
		}
	default:
		*leaves = append(*leaves, path)
	}
}

// perturbAt changes the leaf at steps under the settable value v; map
// entries are copied out, changed and written back.
func perturbAt(t *testing.T, v reflect.Value, steps []step) {
	s := steps[0]
	var at reflect.Value
	if s.field >= 0 {
		at = v.Field(s.field)
	} else {
		at = reflect.New(v.Type().Elem()).Elem()
		at.Set(v.MapIndex(s.key))
	}
	if len(steps) > 1 {
		perturbAt(t, at, steps[1:])
	} else {
		perturb(t, at)
	}
	if s.field < 0 {
		v.SetMapIndex(s.key, at)
	}
}

// perturb sets a leaf to a different value: scalars change, nil funcs,
// pointers and interfaces become set.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Interface:
		impl := map[reflect.Type]any{
			reflect.TypeOf((*context.Context)(nil)).Elem(): context.Background(),
		}[v.Type()]
		if impl == nil {
			t.Fatalf("no test value for interface %v: add one to perturb", v.Type())
		}
		v.Set(reflect.ValueOf(impl))
	default:
		t.Fatalf("leaf kind %v has no perturbation: the encoder does not cover it either", v.Kind())
	}
}

// excluded reports whether the leaf or one of its ancestors is in
// identityExclusions.
func excluded(steps []step) bool {
	for i := 1; i <= len(steps); i++ {
		if _, ok := identityExclusions[pathOf(steps[:i])]; ok {
			return true
		}
	}
	return false
}

// TestFingerprintCoversEveryLeaf perturbs every leaf of Config in turn —
// each field of core.Config, branch.Config and cache.HierarchyConfig,
// each FUs entry — and requires the request fingerprint (which is also
// the snapshot identity) to change, unless identityExclusions lists the
// leaf, in which case it must not change. It also fails on a stale table
// entry and on an entry citing a test that does not exist.
func TestFingerprintCoversEveryLeaf(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	base := Request{Config: Default(wrongpath.Conv), Workload: &w}
	baseFP := base.Fingerprint()
	if baseFP == "" {
		t.Fatal("the default request is not addressable")
	}
	var leaves [][]step
	nodes := map[string]bool{}
	collectLeaves(reflect.ValueOf(base.Config), nil, &leaves, nodes)
	for _, steps := range leaves {
		req := Request{Config: Default(wrongpath.Conv), Workload: &w}
		perturbAt(t, reflect.ValueOf(&req.Config).Elem(), steps)
		path := pathOf(steps)
		if fp, in := req.Fingerprint(), !excluded(steps); (fp != baseFP) != in {
			t.Errorf("%s: fingerprint changed = %v, want %v", path, fp != baseFP, in)
		}
	}
	if len(leaves) < 80 {
		t.Errorf("walked %d leaves; the walk is missing nested fields", len(leaves))
	}

	var tests strings.Builder
	files, _ := filepath.Glob("*_test.go")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		tests.Write(data)
	}
	for path, proof := range identityExclusions {
		if !nodes[path] {
			t.Errorf("exclusion %q names no Config field", path)
		}
		if !strings.Contains(tests.String(), "func "+proof+"(") {
			t.Errorf("exclusion %q cites %s, which is not a test in this package", path, proof)
		}
	}
}

// TestFingerprintUnaddressable: requests whose results no content
// address can cover fingerprint as "" so caches bypass them.
func TestFingerprintUnaddressable(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	anon := w
	anon.Input = ""
	policy := Default(wrongpath.Conv)
	policy.PolicyFactory = func() wrongpath.Policy { return wrongpath.New(wrongpath.Conv) }
	for name, req := range map[string]Request{
		"no input":       {Config: Default(wrongpath.Conv), Workload: &anon},
		"policy factory": {Config: policy, Workload: &w},
	} {
		if fp := req.Fingerprint(); fp != "" {
			t.Errorf("%s: fingerprint %q, want unaddressable", name, fp)
		}
	}
}

// TestFingerprintSeparatesInputsAndPredictors: the workload, its input
// parameters, the "default" and "perfect (oracle)" predictors (which
// Table I renders identically) and two recorded traces each get their
// own address.
func TestFingerprintSeparatesInputsAndPredictors(t *testing.T) {
	fp := func(w func(gap.Params) workloads.Workload, p gap.Params, kind branch.PredictorKind) string {
		wl := w(p)
		cfg := Default(wrongpath.Conv)
		cfg.Core.BranchPred = branch.Config{Predictor: kind, BimodalBits: 14, GShareBits: 16,
			ChoiceBits: 14, HistoryLen: 16, RASSize: 32, IndirectBits: 12}
		return Request{Config: cfg, Workload: &wl}.Fingerprint()
	}
	p := gap.Params{N: 8192, Degree: 8, Seed: 42}
	big := p
	big.N = 16384
	base := fp(gap.BFS, p, branch.PredictorTournament)
	for name, other := range map[string]string{
		"cc":      fp(gap.CC, p, branch.PredictorTournament),
		"n=16384": fp(gap.BFS, big, branch.PredictorTournament),
		"perfect": fp(gap.BFS, p, branch.PredictorPerfect),
	} {
		if other == base {
			t.Errorf("%s shares the address of bfs n=8192 with the default predictor", name)
		}
	}
	bfs := Request{Config: Default(wrongpath.Conv), Trace: recordTrace(t)}.Fingerprint()
	cc := Request{Config: Default(wrongpath.Conv), Trace: recordWorkload(t, gap.CC(gap.TestParams()))}.Fingerprint()
	if bfs == "" || bfs == cc {
		t.Errorf("bfs and cc traces get addresses %q and %q, want two distinct ones", bfs, cc)
	}
}
