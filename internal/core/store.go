package core

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/store"
	"repro/internal/vm"
)

// CheckpointProcess captures the section list of the stopped process p and
// records it in the checkpoint store under the named ref, chaining from
// the ref's current head — the periodic-checkpoint call a long-running
// session makes between migrations. The list is the next round of the
// capture p keeps (vm.Process.Round), so only what was written since its
// previous round is re-encoded and hashed (every carried body is hashed
// too when that round was unkeyed), and only bodies the store does not
// already hold are written.
func (e *Engine) CheckpointProcess(st *store.Store, p *vm.Process, src *arch.Machine, ref string) (*store.Manifest, store.Hash, store.CheckpointStats, error) {
	r, err := p.Round(store.Key)
	if err != nil {
		return nil, store.Hash{}, store.CheckpointStats{}, err
	}
	return st.CheckpointSections(ref, r.Sections, r.Sums, e.Digest(), src.Name)
}

// RestoreFromStore restores the checkpoint named by h — any manifest in a
// chain, not just a head — as a runnable process on machine m. The
// manifest's program digest must match this engine (ErrProgramMismatch
// otherwise); every body is re-verified against its content address on the
// way out of the store.
func (e *Engine) RestoreFromStore(st *store.Store, h store.Hash, m *arch.Machine) (*vm.Process, Timing, error) {
	man, secs, err := st.Sections(h)
	if err != nil {
		return nil, Timing{}, err
	}
	if man.ProgramDigest != e.Digest() {
		return nil, Timing{}, fmt.Errorf("%w: checkpoint %s has program digest %08x, engine is %08x",
			ErrProgramMismatch, h.Short(), man.ProgramDigest, e.Digest())
	}
	start := time.Now()
	p, err := e.NewProcess(m)
	if err == nil {
		err = p.RestoreSections(secs)
	}
	if err != nil {
		return nil, Timing{}, err
	}
	return p, Timing{Restore: time.Since(start), Bytes: man.SnapshotBytes()}, nil
}
