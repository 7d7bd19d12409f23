package session

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// stoppedLinpack compiles linpack n and runs it on DEC5000 to its one
// migration point. Its matrix is a local of main, so the snapshot is an
// exec section, one frame section of ≈ 8n² bytes and the globals.
func stoppedLinpack(t *testing.T, n int) (*core.Engine, *vm.Process) {
	t.Helper()
	e, err := core.NewEngine(workload.LinpackSource(n, false), minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 50_000_000
	var req core.Request
	req.Raise()
	p.PollHook = req.Hook()
	if res, err := p.Run(); err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	return e, p
}

// TestStreamedRestoreLocalisesCorruption flips one bit in each place a cold
// transfer can be damaged — a DATA header, the envelope header, a section
// header, a body byte in the first, a middle and the last chunk the body
// spans, and the FIN — over link.Pipe, which has no frame CRC: the section
// CRC alone stands between a flipped body byte and a restored process.
// Every cell must fail the session with a classified error that names the
// section, the chunk or the envelope; the responder hands out no process,
// and the source stays as it was stopped, so the initiator rolls it back.
func TestStreamedRestoreLocalisesCorruption(t *testing.T) {
	e, p := stoppedLinpack(t, 200) // ≈ 320 KB: the frame body spans all five chunks
	direct, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("linpack", e)
	cfg := Config{ChunkSize: 64 << 10}
	// The initiator sends the OFFER, DATA chunks 0 to 4 as frames 2 to 6,
	// then the FIN. A DATA frame's payload starts after its 16-byte header;
	// chunk 0's opens with the 24-byte envelope header, the snapshot's
	// 8-byte prologue and the 32-byte exec section, then the frame
	// section's header (kind, ID, length, CRC) and body.
	const data, frameHdr = 16, 16 + 24 + 8 + 32
	for _, c := range []struct {
		name       string
		frame, pos int
		want       string
	}{
		{"DATA header", 3, 11, "at chunk 1"}, // chunk 1's sequence number
		{"envelope header", 2, data + 3, "envelope"},
		{"section header", 2, frameHdr + 15, "frame section 1"}, // its CRC
		{"body byte, first chunk", 2, frameHdr + 16 + 1000, "frame section 1"},
		{"body byte, middle chunk", 4, data + 1000, "frame section 1"},
		{"body byte, last chunk", 6, data + 1000, "frame section 1"},
		{"FIN", 7, 19, "at chunk 5"}, // the declared byte count
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := link.Pipe()
			type rr struct {
				q   *vm.Process
				err error
			}
			done := make(chan rr, 1)
			go func() {
				_, q, _, err := Respond(b, reg, arch.SPARC20, Config{})
				b.Close()
				done <- rr{q, err}
			}()
			sends := 0
			flip := corruptingTransport{Transport: a, at: func(f []byte) int {
				if sends++; sends != c.frame {
					return -1
				}
				return c.pos
			}}
			_, initErr := Initiate(flip, e, p.Mach, "linpack", p, cfg)
			a.Close()
			r := <-done
			if initErr == nil || r.err == nil || r.q != nil {
				t.Fatalf("corruption accepted: initiate=%v respond=%v process=%v", initErr, r.err, r.q != nil)
			}
			if class := ClassifyFailure(r.err); class != FailCorrupt || !strings.Contains(r.err.Error(), c.want) {
				t.Errorf("responder err = %v (class %s), want %s naming %q", r.err, class, FailCorrupt, c.want)
			}
			if re, err := p.Recapture(); err != nil || !bytes.Equal(re, direct) {
				t.Fatalf("source state disturbed (err %v)", err)
			}
		})
	}
	if res, err := Rollback(p, Config{}); err != nil || res.Migrated || res.ExitCode != 0 {
		t.Errorf("source after the sweep: %+v, %v; want exit 0", res, err)
	}
}

// TestColdTransferHashesEachByteTwicePerSide counts what a cold transfer
// over loopback TCP hands to CRC-32 (obs.CRC32Bytes): the section CRC end
// to end and the link frame CRC hop by hop, each once per side, so N
// snapshot bytes cost at most 2N + 1 KiB per side (with the chunk and
// running stream CRCs it was about 4N). Both sides run in this process.
func TestColdTransferHashesEachByteTwicePerSide(t *testing.T) {
	e, p := stoppedLinpack(t, 120)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	reg := NewRegistry()
	reg.Add("linpack", e)
	done := make(chan error, 1)
	before := obs.CRC32Bytes.Value()
	go func() {
		_, _, _, err := Respond(srv, reg, arch.SPARC20, Config{})
		done <- err
	}()
	if _, err := Initiate(cli, e, p.Mach, "linpack", p, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	n := int64(len(snap))
	if got, ceiling := obs.CRC32Bytes.Value()-before, 2*(2*n+1<<10); got > ceiling || got < 4*n {
		t.Errorf("a cold transfer of %d snapshot bytes hashed %d bytes on its two sides, want between %d and %d", n, got, 4*n, ceiling)
	}
}
