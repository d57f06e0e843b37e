package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// On-disk layout under Config.StateDir — the daemon's durable state:
//
//	job-000042/
//	    spec.json      the JobSpec, written at admission
//	    result.json    the terminal Status
//	    canonical.json the canonical result bytes, verbatim
//	    ckpt/          the sim checkpoint chain (ckpt-*.wpsnap)
//
// A job directory holding a spec but no result is unfinished work: the
// next daemon run re-admits it and sim.Execute resumes it from the
// newest snapshot in ckpt/, so a SIGTERM'd or crashed daemon resumes
// every in-flight and queued job bit-identically. Every document is
// written durably and atomically (checkpoint.WriteFile: synced temp
// file, rename, directory sync).

const jobDirPrefix = "job-"

// jobID renders the canonical id for a sequence number.
func jobID(seq int) string { return fmt.Sprintf("%s%06d", jobDirPrefix, seq) }

// parseJobSeq inverts jobID strictly: the suffix must be all digits
// and the parsed sequence must render back to exactly the same name.
// A lenient Sscanf("%d") here once admitted "job-12abc" as sequence
// 12 — colliding with job-000012 in the job table — and "job-0000012"
// as a second job-000012; the round-trip rejects both.
func parseJobSeq(name string) (int, bool) {
	digits := strings.TrimPrefix(name, jobDirPrefix)
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(digits)
	if err != nil || jobID(seq) != name {
		return 0, false
	}
	return seq, true
}

// jobDir returns the job's state directory ("" when the server is
// ephemeral).
func (s *Server) jobDir(id string) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, id)
}

// persistSpec writes the job's spec at admission time (a no-op for an
// ephemeral server).
func (s *Server) persistSpec(j *job) error {
	dir := s.jobDir(j.id)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(j.spec, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(filepath.Join(dir, "spec.json"), append(data, '\n'))
}

// resultWriter returns the writer of the job's terminal documents (nil
// for an ephemeral server): the status in result.json and — when the
// job produced one — the canonical result bytes, verbatim, in
// canonical.json (embedding them as a RawMessage inside the indented
// result.json would re-indent them and break byte identity across a
// restart). The canonical file goes first so a crash between the writes
// leaves the job unfinished, never finished-without-result. The job
// calls the writer before publishing its terminal state (job.commit).
// Drain-interrupted jobs are deliberately never persisted — the absence
// of result.json is what re-admits them on restart.
func (s *Server) resultWriter(id string) resultWriter {
	dir := s.jobDir(id)
	if dir == "" {
		return nil
	}
	return func(st Status, canonical json.RawMessage) error {
		if canonical != nil {
			if err := checkpoint.WriteFile(filepath.Join(dir, "canonical.json"), canonical); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		return checkpoint.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'))
	}
}

// removeJobDir rolls back a job directory created for an admission
// that ultimately failed.
func (s *Server) removeJobDir(id string) {
	if dir := s.jobDir(id); dir != "" {
		_ = os.RemoveAll(dir)
	}
}

// loadState scans the state directory and rebuilds the job table:
// terminal jobs are restored read-only from their result documents,
// unfinished jobs (spec without result) are returned as pending, in
// submission order, for re-admission. The returned maxSeq keeps new
// ids unique across daemon runs.
//
// A corrupt document degrades one job, never the daemon: a result.json
// that does not parse is renamed to result.json.corrupt and the job is
// re-admitted (it re-runs or resumes bit-identically); a job directory
// whose spec.json does not parse (or names no runnable request) has
// nothing to re-run, so it is renamed aside to <dir>.corrupt and
// skipped. Both count in wpserved_state_corrupt_total.
func (s *Server) loadState() (pending []*job, maxSeq int, err error) {
	if s.cfg.StateDir == "" {
		return nil, 0, nil
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return nil, 0, err
	}
	ents, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return nil, 0, err
	}
	var loaded []*job
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, jobDirPrefix) {
			continue
		}
		seq, ok := parseJobSeq(name)
		if !ok {
			continue
		}
		maxSeq = max(maxSeq, seq)
		dir := filepath.Join(s.cfg.StateDir, name)
		specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue // a crash between MkdirAll and the spec write; nothing to recover
		}
		var spec JobSpec
		var req sim.Request
		err = json.Unmarshal(specData, &spec)
		if err == nil {
			req, err = spec.request()
		}
		if err != nil {
			s.mStateCorrupt.Inc()
			_ = os.Rename(dir, dir+".corrupt")
			continue
		}
		j := newJob(name, seq, spec, cacheKey(req))
		resPath := filepath.Join(dir, "result.json")
		var st Status
		terminal := false
		if data, err := os.ReadFile(resPath); err == nil {
			if terminal = json.Unmarshal(data, &st) == nil; !terminal {
				s.mStateCorrupt.Inc()
				_ = os.Rename(resPath, resPath+".corrupt")
			}
		}
		if terminal {
			st.ID, st.Spec = j.id, j.spec
			j.st = st
			j.ckptInsts.Store(st.CheckpointInsts)
			// Only a done job may carry canonical bytes; a canceled or
			// failed record next to a canonical.json (a crash relic)
			// must not start serving a result it never reported.
			if st.State == StateDone {
				if canonical, err := os.ReadFile(filepath.Join(dir, "canonical.json")); err == nil {
					j.canonical = canonical
				}
			}
		} else {
			// Re-admission. A canonical.json without result.json is the
			// relic of a crash between persistResult's two writes; drop
			// it now, or a re-run that ends without a result (canceled,
			// failed) would leave it behind for a later daemon run to
			// serve as if the job had completed.
			_ = os.Remove(filepath.Join(dir, "canonical.json"))
			j.st.Interrupted = true // mid-flight (or still queued) when the last daemon run ended
			pending = append(pending, j)
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool { return loaded[a].seq < loaded[b].seq })
	sort.Slice(pending, func(a, b int) bool { return pending[a].seq < pending[b].seq })
	for _, j := range loaded {
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	return pending, maxSeq, nil
}
