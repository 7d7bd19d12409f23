package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestCheckpointRestoreFromStore is the engine-level store round trip: a
// stopped process checkpoints into a content-addressed store, a second
// checkpoint of the unchanged state dedups completely, and the head
// restores to a process that completes correctly on another machine.
func TestCheckpointRestoreFromStore(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	var req Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: %v %v", res, err)
	}

	st, err := store.Open(t.TempDir(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	m, h, cst, err := e.CheckpointProcess(st, p, arch.DEC5000, "countdown")
	if err != nil {
		t.Fatal(err)
	}
	if m.ProgramDigest != e.Digest() || m.Machine != "dec5000" || m.Seq != 1 {
		t.Errorf("manifest: %+v", m)
	}
	if cst.NewBlobs != cst.Sections {
		t.Errorf("first checkpoint into empty store: %s", cst)
	}

	// The unchanged process checkpoints again: every body dedups.
	_, h2, cst2, err := e.CheckpointProcess(st, p, arch.DEC5000, "countdown")
	if err != nil {
		t.Fatal(err)
	}
	if cst2.NewBlobs != 0 || cst2.DupBlobs != cst.Sections {
		t.Errorf("identical re-checkpoint wrote blobs: %s", cst2)
	}

	q, timing, err := e.RestoreFromStore(st, h2, arch.SPARC20)
	if err != nil {
		t.Fatal(err)
	}
	if timing.Bytes == 0 || q.Mach != arch.SPARC20 {
		t.Errorf("restore: %v on %v", timing, q.Mach)
	}
	q.MaxSteps = 1_000_000
	res2, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExitCode != (49*50/2)%97 {
		t.Errorf("exit = %d", res2.ExitCode)
	}

	// A different program build must refuse the checkpoint.
	other, err := NewEngine(`int main() { int i; for (i=0;i<2;i++){} return 1; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.RestoreFromStore(st, h, arch.SPARC20); !errors.Is(err, ErrProgramMismatch) {
		t.Errorf("foreign engine restore: %v, want ErrProgramMismatch", err)
	}
}
