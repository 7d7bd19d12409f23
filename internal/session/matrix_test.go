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

// TestTransferMatrix drives the cold shape — the sectioned (v3) codec over
// the chunk stream — across architecture profiles covering both
// endiannesses and both word sizes, for two programs: the 60-node list,
// and test_pointer, whose heap has a shared child, a cycle and pointer
// arrays. The full protocol runs over link.Pipe, and the restored process
// must re-collect to the byte-identical machine-independent state the
// source captured directly (the v1 codec, the oracle), then run to the
// correct exit code. One more case leaves the responder at its defaults
// while the initiator cuts 512-byte chunks: the size is the sender's
// alone. The subtests run in parallel, so under -race this also exercises
// concurrent sessions.
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
	small := Config{ChunkSize: 512}
	pairs := []struct {
		src, dst *arch.Machine
		dstCfg   Config
		suffix   string
	}{
		{arch.DEC5000, arch.SPARC20, small, ""}, // LE ILP32 -> BE ILP32
		{arch.SPARC20, arch.AMD64, small, ""},   // BE ILP32 -> LE LP64
		{arch.AMD64, arch.SPARCV9, small, ""},   // LE LP64  -> BE LP64
		{arch.SPARCV9, arch.DEC5000, small, ""}, // BE LP64  -> LE ILP32
		{arch.I386, arch.Alpha, small, ""},      // LE ILP32 (packed doubles) -> LE LP64
		{arch.DEC5000, arch.SPARC20, Config{}, "_default_responder"},
	}
	for _, prog := range programs {
		for _, pr := range pairs {
			prog, pr := prog, pr
			t.Run(fmt.Sprintf("%sv3/%s_to_%s%s", prog.prefix, pr.src.Name, pr.dst.Name, pr.suffix), func(t *testing.T) {
				t.Parallel()
				p := stoppedAt(t, prog.e, pr.src)
				direct, err := p.Recapture()
				if err != nil {
					t.Fatal(err)
				}
				sres, _, q := transferWith(t, prog.e, prog.name, p, pr.dst, small, pr.dstCfg)
				if sres.Params != (Params{}) {
					t.Fatalf("negotiated %+v, want the cold shape", sres.Params)
				}
				if q.Mach != pr.dst {
					t.Fatalf("restored process on %s, want %s", q.Mach.Name, pr.dst.Name)
				}
				if sres.Timing.Bytes == 0 {
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
