package session

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/workload"
)

// TestTransferMatrix drives both envelope versions across architecture
// profiles covering both endiannesses and both word sizes, for two
// programs: the 60-node list, and test_pointer, whose heap has a shared
// child, a cycle and pointer arrays. The full negotiated protocol runs
// over link.Pipe, and the restored process must re-collect to the
// byte-identical machine-independent state the source captured directly,
// then run to the correct exit code. The subtests run in parallel, so
// under -race this also exercises concurrent sessions.
func TestTransferMatrix(t *testing.T) {
	pointers, err := core.NewEngine(workload.TestPointerSource(5), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// The list's subtests keep their unprefixed names.
	programs := []struct {
		prefix, name string
		e            *core.Engine
		exit         int
	}{
		{"", "list", newListEngine(t), listExit},
		{"test_pointer/", "test_pointer", pointers, 0},
	}
	pairs := []struct {
		src, dst *arch.Machine
	}{
		{arch.DEC5000, arch.SPARC20}, // LE ILP32 -> BE ILP32
		{arch.SPARC20, arch.AMD64},   // BE ILP32 -> LE LP64
		{arch.AMD64, arch.SPARCV9},   // LE LP64  -> BE LP64
		{arch.SPARCV9, arch.DEC5000}, // BE LP64  -> LE ILP32
		{arch.I386, arch.Alpha},      // LE ILP32 (packed doubles) -> LE LP64
	}
	versions := []uint32{core.VersionMono, core.VersionSectioned}
	for _, prog := range programs {
		for _, pr := range pairs {
			for _, v := range versions {
				prog, pr, v := prog, pr, v
				t.Run(fmt.Sprintf("%sv%d/%s_to_%s", prog.prefix, v, pr.src.Name, pr.dst.Name), func(t *testing.T) {
					t.Parallel()
					p := stoppedAt(t, prog.e, pr.src)
					direct, err := p.Recapture()
					if err != nil {
						t.Fatal(err)
					}
					q, sres, timing, err := Transfer(prog.e, prog.name, p, pr.dst,
						Config{MaxVersion: v, ChunkSize: 512, Window: 4})
					if err != nil {
						t.Fatal(err)
					}
					if sres.Params.Version != v {
						t.Fatalf("negotiated v%d, want v%d", sres.Params.Version, v)
					}
					if q.Mach != pr.dst {
						t.Fatalf("restored process on %s, want %s", q.Mach.Name, pr.dst.Name)
					}
					if timing.Bytes == 0 {
						t.Error("no bytes recorded")
					}
					re, err := q.Recapture()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(re, direct) {
						t.Errorf("recaptured state on %s differs from the source's direct capture (%d vs %d bytes)",
							pr.dst.Name, len(re), len(direct))
					}
					q.MaxSteps = 1_000_000
					res, err := q.Run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Migrated || res.ExitCode != prog.exit {
						t.Errorf("resumed run = %+v, want exit %d", res, prog.exit)
					}
				})
			}
		}
	}
}
