package vm

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// TestSectionedRestoreMatrix restores the same sectioned snapshot on every
// endianness/width pairing of the transfer matrix and requires the
// recapture to be byte-identical to the state the source captured at its
// poll and the resumed run to exit with the reference code.
func TestSectionedRestoreMatrix(t *testing.T) {
	p, prog, state, want := stopSectioned(t, workload.ShardedListsSource(6, 60))
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	machines := []*arch.Machine{
		arch.DEC5000, // LE ILP32
		arch.SPARC20, // BE ILP32
		arch.AMD64,   // LE LP64
		arch.SPARCV9, // BE LP64
		arch.I386,    // LE ILP32, packed doubles
		arch.Alpha,   // LE LP64
	}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			q, err := restoreProcess(prog, m, snap)
			if err != nil {
				t.Fatalf("restore on %s: %v", m.Name, err)
			}
			re, err := q.Recapture()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, state) {
				t.Fatalf("restore on %s does not recapture the source state", m.Name)
			}
			q.Stdout = &bytes.Buffer{}
			q.MaxSteps = 50_000_000
			res, err := q.Run()
			if err != nil {
				t.Fatalf("resume on %s: %v", m.Name, err)
			}
			if res.Migrated || res.ExitCode != want {
				t.Errorf("%s: resumed run = %+v, want exit %d", m.Name, res, want)
			}
		})
	}
}
