package sim

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
)

// sessionSnapshotVersion stamps the session-level snapshot header; bump
// it when the header layout or the section order below changes.
const sessionSnapshotVersion = 3

// stateSource is the capability a Source needs for checkpointing: its
// complete production-side state (functional CPU + memory + frontend
// cursor, or trace cursor) walks deterministically.
type stateSource interface {
	Source
	State(st *checkpoint.Stream)
}

// checkpointState returns src's snapshot capability, or the typed
// ErrConfig fault explaining why the source cannot checkpoint.
func checkpointState(src Source) (stateSource, error) {
	if fs, ok := src.(*functionalSource); ok && fs.par != nil {
		return nil, simerr.Config("configuring checkpointing",
			fmt.Errorf("sim: the parallel frontend cannot checkpoint (in-flight producer batches are not deterministic state)"))
	}
	if ts, ok := src.(traceSource); ok {
		if _, ok := ts.src.(interface{ Pos() uint64 }); !ok {
			return nil, simerr.Config("configuring checkpointing",
				fmt.Errorf("sim: trace producer %T exposes no record cursor (Pos)", ts.src))
		}
	}
	cs, ok := src.(stateSource)
	if !ok {
		return nil, simerr.Config("configuring checkpointing",
			fmt.Errorf("sim: source %T does not support state snapshots", src))
	}
	return cs, nil
}

// checkpointEnabled reports whether the configuration asks for
// snapshots.
func (c Config) checkpointEnabled() bool {
	return c.CheckpointEvery > 0 && c.CheckpointDir != ""
}

// nextCheckpoint returns the first snapshot threshold past insts on the
// every-grid — the alignment that keeps snapshot instants identical
// between an uninterrupted run and any kill/resume chain.
func nextCheckpoint(insts, every uint64) uint64 {
	return every * (insts/every + 1)
}

// checkpointer writes snapshots from the core's lane hook. The first
// write error latches and disables further snapshots; it surfaces in
// Result.Err (lowest precedence) so a full-disk sweep cell is annotated
// rather than silently unprotected.
type checkpointer struct {
	s     *Session
	src   stateSource
	dir   string
	every uint64
	next  uint64
	err   error
}

// newCheckpointer validates the source capability and creates the
// snapshot directory.
func newCheckpointer(s *Session, src Source) (*checkpointer, error) {
	cs, err := checkpointState(src)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	return &checkpointer{
		s:     s,
		src:   cs,
		dir:   s.cfg.CheckpointDir,
		every: s.cfg.CheckpointEvery,
		next:  nextCheckpoint(s.restoredInsts, s.cfg.CheckpointEvery),
	}, nil
}

// onLane runs at every measured lane boundary: past the threshold, it
// serializes the full session state and advances to the next grid
// point.
func (ck *checkpointer) onLane() {
	if ck.err != nil {
		return
	}
	insts := ck.s.core.Stats().Instructions
	if insts < ck.next {
		return
	}
	path, size, err := ck.write(insts)
	if err != nil {
		ck.err = err
		return
	}
	ck.next = nextCheckpoint(insts, ck.every)
	ck.s.view.CheckpointWrite(insts, uint64(size))
	if ck.s.cfg.OnCheckpoint != nil {
		ck.s.cfg.OnCheckpoint(insts, path)
	}
}

// write saves the session into the snapshot for insts instructions.
func (ck *checkpointer) write(insts uint64) (string, int, error) {
	st := checkpoint.NewStream()
	if err := ck.s.state(st, ck.src, &insts); err != nil {
		return "", 0, err
	}
	data := st.Finish()
	path := filepath.Join(ck.dir, checkpoint.FileName(insts))
	if err := checkpoint.WriteFile(path, data); err != nil {
		return "", 0, err
	}
	return path, len(data), nil
}

// Restore overwrites the session's freshly-built state with a snapshot.
// It must be called before Run; the subsequent Run then skips the
// warmup phase (the snapshot was taken inside the measured phase, past
// warmup) and continues to a Result bit-identical to an uninterrupted
// run. An identity mismatch (see Request.identity), or a session or
// snapshot without one, is a typed simerr.ErrConfig fault; decode
// failures are typed corruption faults. On any error the session is
// left partially overwritten and must be discarded.
func (s *Session) Restore(st *checkpoint.Stream) error {
	cs, err := checkpointState(s.src)
	if err != nil {
		return err
	}
	var insts uint64
	if err := s.state(st, cs, &insts); err != nil {
		return err
	}
	s.restored = true
	s.restoredInsts = insts
	s.view.CheckpointRestore(insts)
	return nil
}

// state walks the session: a header (snapshot identity, instruction
// count), then source → queue → core → policy statistics.
func (s *Session) state(st *checkpoint.Stream, src stateSource, insts *uint64) error {
	ident := s.ident
	st.Section("sim/Session", sessionSnapshotVersion)
	st.String(&ident)
	st.Uint64(insts)
	if err := st.Err(); err != nil {
		return err
	}
	if st.Loading() && (ident == "" || ident != s.ident) {
		return simerr.Config("restoring snapshot",
			fmt.Errorf("sim: snapshot identity %q does not match the resuming request's %q", ident, s.ident))
	}
	src.State(st)
	s.queue.State(st)
	s.core.State(st)
	s.policy.Stats().State(st)
	return st.Err()
}
