package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xdr"
)

// sectionsOf is the section list of the snapshot of the stopped process p.
func sectionsOf(t *testing.T, p *vm.Process) []snapshot.Section {
	t.Helper()
	snap, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.NewReader(xdr.NewDecoder(snap))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// TestCheckpointRestoreFromStore is the engine-level store round trip: a
// stopped process checkpoints into a content-addressed store, a second
// checkpoint of the unchanged state dedups completely, and the head
// restores to a process that completes correctly on another machine.
func TestCheckpointRestoreFromStore(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p := stoppedAtMigration(t, e, arch.DEC5000)

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

// TestSectionValuedEntryPointsMatchFramedOnes holds every byte-slice entry
// point to being its section-valued one with snapshot.Encode or
// snapshot.Reader in front — on the four benchmark programs (quick sizes)
// and this package's fixtures. One producer: Encode(Sections) =
// CaptureSections = a live round's Snapshot. One checkpoint:
// CheckpointSections and CheckpointRef of the framed list yield the same
// manifest hash and stats, and Encode(store.Sections) = Materialize. One
// restore: RestoreSections and RestoreInto of the framed list yield
// processes with equal recaptures and equal block addresses.
func TestSectionValuedEntryPointsMatchFramedOnes(t *testing.T) {
	for name, fx := range map[string]struct {
		src    string
		policy minic.PollPolicy
	}{
		"cold_array":   {workload.LinpackSource(48, false), minic.PollPolicy{}},
		"cold_pointer": {workload.BitonicSource(256, 1), minic.PollPolicy{}},
		"warm_mutated": {workload.MutatingShardsSource(16, 12, 1<<30), minic.PollPolicy{}},
		"live_writer":  {workload.WriteRateSource(16, 12, 2, 1<<30), minic.PollPolicy{}},
		"countdown":    {countdownSrc, minic.DefaultPolicy},
		"list":         {listSrc, minic.PollPolicy{}},
		"nested":       {nestedSrc, minic.PollPolicy{}},
	} {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(fx.src, fx.policy)
			if err != nil {
				t.Fatal(err)
			}
			p := stoppedAtMigration(t, e, arch.DEC5000)
			secs := sectionsOf(t, p)
			framed := snapshot.Encode(secs)

			if snap, err := p.CaptureSections(0); err != nil || !bytes.Equal(snap, framed) {
				t.Errorf("CaptureSections differs from Encode(Sections) (err %v)", err)
			}
			lc := p.NewLiveCapture(0)
			round, err := lc.Round()
			lc.Close()
			if err != nil || !bytes.Equal(round.Snapshot(), framed) {
				t.Errorf("a live round's Snapshot differs from Encode(Sections) (err %v)", err)
			}

			bySections, err := store.Open(t.TempDir(), obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			byBytes, err := store.Open(t.TempDir(), obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			_, h, st, err := bySections.CheckpointSections("ref", secs, nil, e.Digest(), p.Mach.Name)
			if err != nil {
				t.Fatal(err)
			}
			_, h2, st2, err := byBytes.CheckpointRef("ref", framed, e.Digest(), p.Mach.Name)
			if err != nil {
				t.Fatal(err)
			}
			st.Elapsed, st2.Elapsed = 0, 0
			if h != h2 || st != st2 || st.SnapshotBytes != int64(len(framed)) {
				t.Errorf("CheckpointSections %s %+v, CheckpointRef %s %+v, snapshot is %d bytes", h.Short(), st, h2.Short(), st2, len(framed))
			}
			_, stored, err := bySections.Sections(h)
			if err != nil {
				t.Fatal(err)
			}
			if mat, err := bySections.Materialize(h); err != nil || !bytes.Equal(mat, framed) || !bytes.Equal(snapshot.Encode(stored), framed) {
				t.Errorf("Materialize / Encode(store.Sections) differ from the checkpointed list (err %v)", err)
			}

			q, err := e.NewProcess(arch.SPARC20)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.RestoreSections(secs); err != nil {
				t.Fatal(err)
			}
			q2, err := e.NewProcess(arch.SPARC20)
			if err != nil {
				t.Fatal(err)
			}
			if err := q2.RestoreInto(framed); err != nil {
				t.Fatal(err)
			}
			re, err := q.Recapture()
			if err != nil {
				t.Fatal(err)
			}
			re2, err := q2.Recapture()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, re2) {
				t.Error("RestoreSections and RestoreInto yield processes that recapture differently")
			}
			blocks, blocks2 := q.Table.Blocks(), q2.Table.Blocks()
			if len(blocks) != len(blocks2) {
				t.Fatalf("restored tables hold %d and %d blocks", len(blocks), len(blocks2))
			}
			for i, b := range blocks {
				if b.ID != blocks2[i].ID || b.Addr != blocks2[i].Addr {
					t.Fatalf("block %d: %v at %#x by sections, %v at %#x by bytes", i, b.ID, b.Addr, blocks2[i].ID, blocks2[i].Addr)
				}
			}
			// The counts must agree; the update and decode times are clocks.
			rs, rs2 := q.RestoreStatsOf(), q2.RestoreStatsOf()
			rs.UpdateTime, rs.DecodeTime, rs2.UpdateTime, rs2.DecodeTime = 0, 0, 0, 0
			if rs != rs2 {
				t.Errorf("restore stats differ: %+v by sections, %+v by bytes", rs, rs2)
			}
		})
	}
}
