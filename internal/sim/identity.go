package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"sync"

	"repro/internal/specfp"
)

// identityExclusions is the one table of Config fields left out of a
// request's identity; every other leaf, nested ones included, is in it
// by default. Each entry names the test proving the field cannot change
// result bytes (TestFingerprintCoversEveryLeaf checks both).
var identityExclusions = map[string]string{
	"Core.Batch":       "TestBatchSizeBitIdentical",
	"ParallelFrontend": "TestParallelFrontendIdenticalResults",
	"Clock":            "TestInjectedClockDrivesWall",
	"Metrics":          "TestObsEnabledBitIdentical",
	"Trace":            "TestObsEnabledBitIdentical",
	"ObsLabel":         "TestObsEnabledBitIdentical",
	"Ctx":              "TestCheckpointResumeBitIdentical",
	"CheckpointDir":    "TestCheckpointingDisturbsNothing",
	"CheckpointEvery":  "TestCheckpointingDisturbsNothing",
	"OnCheckpoint":     "TestCheckpointingDisturbsNothing",
}

// field is one compiled Config field: its name, its index in the
// enclosing struct, and the fields of a struct or of a map's struct
// elements. Compiling once keeps path strings off wpserved's hit path.
type field struct {
	name  string
	index int
	sub   []field
}

// plan is the compiled encoding of Config.
var plan = sync.OnceValue(func() []field { return compile(reflect.TypeOf(Config{}), "") })

// compile lists t's fields minus the exclusions (dotted paths).
func compile(t reflect.Type, prefix string) []field {
	var out []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		path := prefix + sf.Name
		if _, ok := identityExclusions[path]; ok {
			continue
		}
		f := field{name: sf.Name, index: i}
		ft := sf.Type
		if ft.Kind() == reflect.Map {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			f.sub = compile(ft, path+".")
		}
		out = append(out, f)
	}
	return out
}

// Fingerprint is the request's content address: the specfp hash of the
// input (the workload's suite, name and Input, or the trace bytes'
// SHA-256) and of every Config field outside identityExclusions, so
// equal fingerprints mean equal result bytes. It is "" for a request
// that is not addressable — a workload without an Input, or a set
// PolicyFactory — which caches bypass.
func (r Request) Fingerprint() string { return r.identity(&r.Config) }

// identity builds the fingerprint of r run under cfg. Execute stamps it,
// with cfg's defaults resolved, into every snapshot as the one identity
// a resume must match, so a snapshot never continues another
// technique's, input's or configuration's run.
func (r *Request) identity(cfg *Config) string {
	b := specfp.New("sim/Request/v1")
	switch w := r.Workload; {
	case w != nil && w.Input != "":
		b.String("suite", w.Suite)
		b.String("name", w.Name)
		b.String("input", w.Input)
	case w == nil && r.Trace != nil:
		sum := sha256.Sum256(r.Trace)
		b.String("trace_sha256", hex.EncodeToString(sum[:]))
	default:
		return ""
	}
	if !encodeValue(b, "Config", reflect.ValueOf(cfg).Elem(), plan()) {
		return ""
	}
	return b.Sum()
}

// encodeValue appends one value: scalars as one field, structs as their
// planned fields, maps as an entry count and entries in key order. A
// nil func, pointer or interface is absent; a set one, or an unknown
// kind, reports false (not addressable).
func encodeValue(b *specfp.Builder, name string, v reflect.Value, sub []field) bool {
	switch k := v.Kind(); {
	case v.CanInt():
		b.Int64(name, v.Int())
	case v.CanUint():
		b.Uint64(name, v.Uint())
	case v.CanFloat():
		b.Float(name, v.Float())
	case k == reflect.Bool:
		b.Bool(name, v.Bool())
	case k == reflect.String:
		b.String(name, v.String())
	case k == reflect.Struct:
		for _, f := range sub {
			if !encodeValue(b, f.name, v.Field(f.index), f.sub) {
				return false
			}
		}
	case k == reflect.Map:
		keys := v.MapKeys()
		less := func(i, j int) bool { return keys[i].Int() < keys[j].Int() }
		if len(keys) > 0 && keys[0].CanUint() {
			less = func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() }
		} else if len(keys) > 0 && !keys[0].CanInt() {
			return false // no canonical key order
		}
		sort.Slice(keys, less)
		b.Int64(name, int64(len(keys)))
		for _, key := range keys {
			if !encodeValue(b, "key", key, nil) || !encodeValue(b, "value", v.MapIndex(key), sub) {
				return false
			}
		}
	case k == reflect.Func || k == reflect.Pointer || k == reflect.Interface:
		return v.IsNil()
	default:
		return false
	}
	return true
}
