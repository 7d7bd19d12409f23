package session

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
)

// TestTransferMatrix drives both envelope versions across architecture
// profiles covering both endiannesses and both word sizes: the full
// negotiated protocol runs over link.Pipe, and the restored process must
// re-collect to the byte-identical machine-independent state the source
// captured directly, then run to the correct exit code. The subtests run
// in parallel, so under -race this also exercises concurrent sessions.
func TestTransferMatrix(t *testing.T) {
	e := newListEngine(t)
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
	for _, pr := range pairs {
		for _, v := range versions {
			pr, v := pr, v
			t.Run(fmt.Sprintf("v%d/%s_to_%s", v, pr.src.Name, pr.dst.Name), func(t *testing.T) {
				t.Parallel()
				p := stoppedAt(t, e, pr.src)
				direct, err := p.Recapture()
				if err != nil {
					t.Fatal(err)
				}
				q, sres, timing, err := Transfer(e, "list", p, pr.dst,
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
				if res.Migrated || res.ExitCode != listExit {
					t.Errorf("resumed run = %+v, want exit %d", res, listExit)
				}
			})
		}
	}
}
