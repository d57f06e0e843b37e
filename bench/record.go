package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stat is one metric of a record: a central value with its quartiles
// over the samples it came from.
type stat struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// host identifies the machine and toolchain a record was measured on;
// records from different CPU models or Go versions do not compare.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// record is everything one run measured; -out writes it as JSON.
type record struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Seconds   int             `json:"seconds"`
	Traced    bool            `json:"traced"`
	Host      host            `json:"host"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailFrac  float64         `json:"fail_frac"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// HostScale is the factor from raw host time to the reference-host
	// time every timing above is reported in (see hostspeed.go), over
	// the run's timed regions; raw time is reported time / scale.
	HostScale stat `json:"host_scale"`
	// Digests are the per-cell result digests of the run's first rep.
	Digests map[string]string `json:"digests"`
}

// commit is the measured commit, set at build time by run.sh
// (-ldflags "-X main.commit=...").
var commit = "unknown"

func hostInfo() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
	if bi, ok := debug.ReadBuildInfo(); ok && h.Commit == "unknown" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the model name from /proc/cpuinfo ("unknown" when the
// file is absent, as on non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize reports samples by their median and quartiles.
func summarize(samples []float64) stat {
	s := sortedCopy(samples)
	return stat{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s), Samples: samples}
}

// percentile reports samples by their p-quantile, keeping the quartiles
// for the spread; samples are not stored (there are thousands).
func percentile(samples []float64, p float64) stat {
	s := sortedCopy(samples)
	return stat{Value: quantile(s, p), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single reports a value that has no spread: a deterministic quantity
// or a one-shot measurement.
func single(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is the last line of standard output, the one line tools that
// run the benchmark parse.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table and then the result line for
// the declared metrics. A declared metric the run did not produce is a
// bug, reported as an error rather than silently dropped.
func report(w io.Writer, rec *record, decls []metricDecl) error {
	out := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]resultMetric{}}
	fmt.Fprintf(w, "workload %s seed %d traced %v on %s (%d cpus, %s)\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Host.CPU, rec.Host.NumCPU, rec.Host.Go)
	for _, d := range decls {
		st, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
			return fmt.Errorf("metric %s is not a number", d.name)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-10s [q1 %.6g, q3 %.6g, n %d]\n", d.name, st.Value, d.unit, st.Q1, st.Q3, st.N)
		out.Metrics[d.name] = resultMetric{Value: st.Value, Unit: d.unit}
	}
	fmt.Fprintf(w, "  %-40s %14.6g %-10s (%d failed of %d attempted)\n", "fail_frac", rec.FailFrac, "fraction", rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "  %-40s %14.6g %-10s [q1 %.6g, q3 %.6g, n %d] (times above are raw host time × this)\n",
		"host_scale", rec.HostScale.Value, "ratio", rec.HostScale.Q1, rec.HostScale.Q3, rec.HostScale.N)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rec, nil
}

// compare prints, per metric, both records' medians and quartiles, the
// change, the bound and a verdict. It refuses records from different
// CPU models or Go versions, and reports whether any metric regressed.
func compare(w io.Writer, a, b *record) (regressed bool, err error) {
	if a.Host.CPU != b.Host.CPU || a.Host.Go != b.Host.Go {
		return false, fmt.Errorf("records are not comparable: %q/%s vs %q/%s",
			a.Host.CPU, a.Host.Go, b.Host.CPU, b.Host.Go)
	}
	if a.Workload != b.Workload {
		return false, fmt.Errorf("records are of different workloads: %s vs %s", a.Workload, b.Workload)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %24s %24s %8s %6s  %s\n", "metric", "A median [q1,q3]", "B median [q1,q3]", "worse", "bound", "verdict")
	for _, n := range names {
		sa, sb := a.Metrics[n], b.Metrics[n]
		worse := ratio(sb.Value-sa.Value, math.Abs(sa.Value))
		if sa.Better == "higher" {
			worse = -worse
		}
		verdict := "-"
		if sa.Bound > 0 {
			// Only repeated measurements of the metric itself (per rep or
			// per cycle) have a spread; a latency's quartiles describe
			// the distribution of jobs, not the metric's repeatability.
			var spread float64
			if len(sa.Samples) > 1 {
				spread = ratio(sa.Q3-sa.Q1, math.Abs(sa.Value))
			}
			switch {
			case spread > sa.Bound:
				verdict = "unresolved (spread above bound)"
			case worse > sa.Bound:
				verdict = "REGRESSED"
				regressed = true
			case -worse > sa.Bound:
				verdict = "improved"
			default:
				verdict = "within bound"
			}
		}
		fmt.Fprintf(w, "%-40s %24s %24s %+7.1f%% %6.2f  %s\n", n, fmtStat(sa), fmtStat(sb), 100*worse, sa.Bound, verdict)
	}
	return regressed, nil
}

func fmtStat(s stat) string { return fmt.Sprintf("%.4g [%.4g,%.4g]", s.Value, s.Q1, s.Q3) }
