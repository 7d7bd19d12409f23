package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xdr"
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

// sectionsOf is the section list of the snapshot of the stopped process p,
// taken apart by a scratch checkpoint store.
func sectionsOf(t *testing.T, p *vm.Process) []snapshot.Section {
	t.Helper()
	snap, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t)
	_, h, _, err := st.CheckpointRef("snapshot", snap, 0, p.Mach.Name)
	if err != nil {
		t.Fatal(err)
	}
	_, secs, err := st.Sections(h)
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// coldOverPipe migrates the stopped process p to dst over an in-memory
// pipe under cfg, with a record-only chaos injector on both ends, and
// returns the initiator's Result, the restored process, the responder's
// timing and the frame trace.
func coldOverPipe(t *testing.T, e *core.Engine, p *vm.Process, dst *arch.Machine, cfg Config) (*Result, *vm.Process, core.Timing, []chaos.Event) {
	t.Helper()
	rec := chaos.NewRecordOnly()
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	reg := NewRegistry()
	reg.Add("prog", e)
	type rr struct {
		q   *vm.Process
		tim core.Timing
		err error
	}
	c := make(chan rr, 1)
	go func() {
		_, q, tim, err := Respond(rec.Dest(b), reg, dst, cfg)
		b.Close()
		c <- rr{q, tim, err}
	}()
	res, err := Initiate(rec.Source(a), e, p.Mach, "prog", p, cfg)
	if err != nil {
		a.Close()
	}
	r := <-c
	if err != nil || r.err != nil {
		t.Fatalf("initiate: %v; respond: %v", err, r.err)
	}
	return res, r.q, r.tim, rec.Trace()
}

// scriptedCold opens a cold session against a responder restoring on
// SPARC20, as the initiator of program "list", and returns the initiator's
// end, the responder's end as it counts what it received, and the channel
// the responder's outcome arrives on. What follows the ACCEPT is the
// caller's to send.
func scriptedCold(t *testing.T, e *core.Engine) (link.Transport, *counting, chan respondResult) {
	t.Helper()
	reg := NewRegistry()
	reg.Add("list", e)
	a, b := link.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	received := &counting{Transport: b}
	out := make(chan respondResult, 1)
	go func() {
		_, q, _, err := Respond(received, reg, arch.SPARC20, Config{})
		b.Close()
		out <- respondResult{q, err}
	}()
	if err := a.Send(marshalOffer(offer{digest: e.Digest(), program: "list", machine: "dec5000"})); err != nil {
		t.Fatal(err)
	}
	if acc, _, err := recvMessage(a, wire.Accept); err != nil || acc.params.rounds() {
		t.Fatalf("handshake: %+v, %v; want a cold ACCEPT", acc.params, err)
	}
	return a, received, out
}

// counting is a transport that counts the bytes it receives.
type counting struct {
	link.Transport
	received int64
}

func (c *counting) Recv() ([]byte, error) {
	b, err := c.Transport.Recv()
	c.received += int64(len(b))
	return b, err
}

// receiveScripted streams payload, cut at chunk bytes, into a cold
// responder and returns what it made of it; a responder that restored is
// sent its COMMIT.
func receiveScripted(t *testing.T, e *core.Engine, payload []byte, chunk int) (*vm.Process, error) {
	t.Helper()
	a, _, out := scriptedCold(t, e)
	w := stream.NewWriter(a, stream.Config{ChunkSize: chunk})
	w.Write(payload)
	w.Close()
	if _, _, err := recvMessage(a, wire.Restored); err == nil {
		a.Send(marshalCommit())
	}
	r := <-out
	return r.q, r.err
}

func TestStreamedMigrationRoundTrip(t *testing.T) {
	e := newListEngine(t)
	for _, pair := range [][2]*arch.Machine{
		{arch.DEC5000, arch.SPARC20},
		{arch.SPARC20, arch.I386},
		{arch.I386, arch.AMD64},
		{arch.AMD64, arch.SPARCV9},
		{arch.SPARCV9, arch.Alpha},
		{arch.Alpha, arch.Ultra5},
	} {
		src, dst := pair[0], pair[1]
		t.Run(src.Name+"_to_"+dst.Name, func(t *testing.T) {
			p := stoppedAt(t, e, src)
			direct, err := p.Recapture()
			if err != nil {
				t.Fatal(err)
			}
			res, q, rx, trace := coldOverPipe(t, e, p, dst, Config{ChunkSize: 256})
			data := 0
			for _, ev := range trace {
				if ev.Class == "data" {
					data++
				}
			}
			if data < 4 {
				t.Errorf("only %d chunks; state too small to exercise chunking", data)
			}
			if rx.Restore <= 0 || rx.Bytes != res.Timing.Bytes {
				t.Errorf("responder timing = %+v, initiator sent %d bytes", rx, res.Timing.Bytes)
			}
			if q.Mach != dst {
				t.Errorf("restored on %s, want %s", q.Mach.Name, dst.Name)
			}
			if re, err := q.Recapture(); err != nil || !bytes.Equal(re, direct) {
				t.Errorf("restored MSR graph differs from the direct capture (err %v)", err)
			}
			runRestored(t, q, listExit)
		})
	}
}

// nestedSrc migrates from inside a called function's loop. The cold send
// re-collects the stopped process (Process.Sections), which must see the
// outer frame's call site even though the migration has already unwound
// the interpreter. Sum of 3i for i in [0,40) is 2340; 2340 % 100 = 40.
const nestedSrc = `
	struct node { int val; struct node *next; };
	int sum_list(struct node *h) {
		int s;
		s = 0;
		while (h) {
			s = s + h->val;
			h = h->next;
			migrate_here();
		}
		return s;
	}
	int main() {
		struct node *head, *n;
		int i, total;
		head = 0;
		for (i = 0; i < 40; i++) {
			n = (struct node *) malloc(sizeof(struct node));
			n->val = i * 3;
			n->next = head;
			head = n;
		}
		total = sum_list(head);
		return total % 100;
	}
`

func TestStreamedMigrationFromNestedCall(t *testing.T) {
	e, err := core.NewEngine(nestedSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	polls := 0
	p.PollHook = func(*vm.Process, *minic.Site) bool {
		polls++
		return polls == 17 // partway through sum_list's loop
	}
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	state, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	_, q, _, _ := coldOverPipe(t, e, p, arch.SPARC20, Config{ChunkSize: 256})
	if re, err := q.Recapture(); err != nil || !bytes.Equal(re, state) {
		t.Errorf("restored nested-frame MSR graph differs (err %v)", err)
	}
	runRestored(t, q, 40)
}

// TestColdStreamIsTheSnapshot pins what a cold transfer puts on the wire
// between ACCEPT and RESTORED: the DATA payloads reassemble to exactly the
// snapshot CaptureSections returns — no header in front of it — at any
// chunk size (how the sender cuts its stream changes no byte of it), and
// Timing.Bytes counts exactly those bytes.
func TestColdStreamIsTheSnapshot(t *testing.T) {
	for _, src := range []string{listSrc, nestedSrc} {
		e, err := core.NewEngine(src, minic.PollPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		p := stoppedAt(t, e, arch.DEC5000)
		snap, err := p.CaptureSections(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{512, 4096, 0} {
			a, b := link.Pipe()
			got := make(chan []byte, 1)
			go func() {
				var payload []byte
				if _, _, err := recvMessage(b, wire.Offer); err == nil && b.Send(marshalAccept(Params{})) == nil {
					if payload, err = stream.NewReader(b, stream.Config{}).ReadAll(); err == nil && b.Send(marshalRestored(uint64(len(payload)), nil)) == nil {
						recvMessage(b, wire.Commit)
					}
				}
				// Closing either end closes the pipe; only this side closes it,
				// which also unblocks an initiator this side gave up on.
				b.Close()
				got <- payload
			}()
			res, err := Initiate(a, e, p.Mach, "prog", p, Config{ChunkSize: chunk})
			payload := <-got
			if err != nil {
				t.Fatalf("chunk size %d: %v", chunk, err)
			}
			if !bytes.Equal(payload, snap) || res.Timing.Bytes != len(snap) {
				t.Errorf("chunk size %d: the stream carried %d bytes (Timing.Bytes %d) that are not the %d-byte snapshot",
					chunk, len(payload), res.Timing.Bytes, len(snap))
			}
		}
	}
}

// TestColdFrameSequence pins a cold migration's frames from a record-only
// trace: OFFER, ACCEPT, ⌈bytes/chunk⌉ DATA, FIN, RESTORED, COMMIT — the
// responder sends nothing between ACCEPT and RESTORED. Then a FIN whose
// byte count disagrees with the DATA that arrived: the restore fails as
// FailCorrupt, the responder holds no process, and the source, still
// paused, rolls back to its correct exit.
func TestColdFrameSequence(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 256
	_, q, _, trace := coldOverPipe(t, e, p, arch.SPARC20, Config{ChunkSize: chunk})
	type frame struct {
		class      string
		fromSource bool
	}
	want := []frame{{"offer", true}, {"accept", false}}
	for i := 0; i < (len(snap)+chunk-1)/chunk; i++ {
		want = append(want, frame{"data", true})
	}
	want = append(want, frame{"fin", true}, frame{"restored", false}, frame{"commit", true})
	var got []frame
	for _, ev := range trace {
		got = append(got, frame{ev.Class, ev.FromSource})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cold frames:\n  got  %v\n  want %v", got, want)
	}
	runRestored(t, q, listExit)

	p = stoppedAt(t, e, arch.DEC5000)
	reg := NewRegistry()
	reg.Add("list", e)
	a, b := link.Pipe()
	defer a.Close()
	done := make(chan respondResult, 1)
	go func() {
		_, q, _, err := Respond(b, reg, arch.SPARC20, Config{})
		b.Close()
		done <- respondResult{q, err}
	}()
	lying := corruptingTransport{Transport: a, at: func(f []byte) int {
		if wire.Name(f) == "fin" {
			return len(f) - 1 // the FIN's declared byte count
		}
		return -1
	}}
	_, initErr := Initiate(lying, e, p.Mach, "list", p, Config{ChunkSize: chunk})
	r := <-done
	if initErr == nil || r.q != nil || ClassifyFailure(r.err) != FailCorrupt || !errors.Is(r.err, stream.ErrVerify) {
		t.Fatalf("FIN with wrong totals: initiate=%v, respond=%v (class %s), process=%v; want both failed, FailCorrupt, no process",
			initErr, r.err, ClassifyFailure(r.err), r.q != nil)
	}
	if res, err := Rollback(p, Config{}); err != nil || res.Migrated || res.ExitCode != listExit {
		t.Errorf("rolled-back source: %+v, %v; want exit %d", res, err, listExit)
	}
}

// TestColdReceiveRejectsDamagedStream holds the cold responder to the
// snapshot it is sent: its own snapshot restores whatever the chunk size,
// and garbage, a wrong magic, or a stream cut short anywhere in the
// prologue and the first section header — each closed by a FIN whose
// totals hold — is refused as a corrupt stream, and no process is
// returned. (Which program and which source machine the stream belongs to
// was settled by the OFFER before the first DATA.)
func TestColdReceiveRejectsDamagedStream(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	snap, err := p.CaptureSections(0)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := receiveScripted(t, e, snap, 16); err != nil || q == nil {
		t.Fatalf("own snapshot cut into 16-byte chunks: %v", err)
	}
	bad := append([]byte{}, snap...)
	bad[0] = 0
	cases := []struct {
		name    string
		payload []byte
	}{
		{"garbage", []byte{1, 2, 3}},
		{"bad magic", bad},
		{"last word missing", snap[:len(snap)-4]},
	}
	for cut := 0; cut < 8+16; cut++ {
		cases = append(cases, struct {
			name    string
			payload []byte
		}{fmt.Sprintf("cut at %d", cut), snap[:cut]})
	}
	for _, c := range cases {
		if q, err := receiveScripted(t, e, c.payload, 8); !errors.Is(err, collect.ErrCorruptStream) || q != nil {
			t.Errorf("%s: process %v, err %v; want ErrCorruptStream and no process", c.name, q != nil, err)
		}
	}
}

// TestStreamedRestoreBoundsHostileLengths scripts a sender whose stream is
// well-formed up to a length the bytes never back: the prologue and the
// real exec section, then a heap section header declaring 64 MiB whose
// directory claims all of it for one block — followed by the FIN, or by a
// stall — or a frame section whose declared length runs past everything
// sent before the FIN. The responder must turn no declared length into an
// allocation: it refuses with collect.ErrCorruptStream naming where it
// stopped (a stalled one with the transport's error once the sender gives
// up), returns no process, and
// allocates no more than 64 KiB plus sixteen times the bytes it received
// beyond what the session and the process shell itself take — measured on
// a stream that ends right after the exec section.
func TestStreamedRestoreBoundsHostileLengths(t *testing.T) {
	e := newListEngine(t)
	p := stoppedAt(t, e, arch.DEC5000)
	secs := sectionsOf(t, p)
	if len(secs) != 4 || secs[1].Kind != snapshot.KindHeap || secs[2].Kind != snapshot.KindFrame {
		t.Fatalf("fixture is not exec, one heap component, one frame, globals: %d sections", len(secs))
	}
	// Each stream opens with the prologue and the real exec section, framed
	// by the snapshot's own Writer; a hostile section is one that Begin
	// declares longer than the bytes that follow it.
	opening := func() (*bytes.Buffer, *snapshot.Writer) {
		var b bytes.Buffer
		sw := snapshot.NewWriter(&b, len(secs))
		if err := sw.Section(snapshot.KindExec, 0, secs[0].Body); err != nil {
			t.Fatal(err)
		}
		return &b, sw
	}
	// A struct node encodes in at least 8 bytes (a float and a null
	// reference): (64 MiB - 20) / 8 of them claim the whole declared body.
	const declared = 64 << 20
	real := xdr.NewDecoder(secs[1].Body)
	real.Uint32()
	major, _, ty, _, _ := real.Uint32x4()
	claim := xdr.NewEncoder(64)
	claim.PutUint32(1)
	claim.Put4Uint32(major, 0, ty, (declared-20)/8)
	claim.PutFixedOpaque(make([]byte, 44))
	exec, _ := opening()
	heap, sw := opening()
	sw.Begin(snapshot.KindHeap, 0, declared)
	sw.Write(claim.Bytes())
	past, sw := opening()
	frame := secs[2].Body
	sw.Section(snapshot.KindHeap, 0, secs[1].Body)
	sw.Begin(snapshot.KindFrame, 1, len(frame)+1<<20)
	sw.Write(frame[:len(frame)/2&^3])

	var shell uint64
	for i, c := range []struct {
		name    string
		payload []byte
		stall   bool
		want    string // what the error names
	}{
		{"exec, then FIN", exec.Bytes(), false, "missing header"},
		{"heap claims 64 MiB, then FIN", heap.Bytes(), false, "heap section 0"},
		{"heap claims 64 MiB, then a stall", heap.Bytes(), true, "transport closed"},
		{"frame runs past the FIN", past.Bytes(), false, "frame section 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a, received, done := scriptedCold(t, e)
			// Small chunks: a stalled sender has shipped all but the tail.
			w := stream.NewWriter(a, stream.Config{ChunkSize: 64})
			if _, err := w.Write(c.payload); err != nil {
				t.Fatal(err)
			}
			if c.stall {
				time.Sleep(50 * time.Millisecond)
				a.Close()
			}
			w.Close()
			r := <-done
			runtime.ReadMemStats(&after)
			if r.q != nil || r.err == nil || !c.stall && !errors.Is(r.err, collect.ErrCorruptStream) || !strings.Contains(r.err.Error(), c.want) {
				t.Errorf("process %v, err %v; want no process and ErrCorruptStream naming %q", r.q != nil, r.err, c.want)
			}
			got, ceiling := after.TotalAlloc-before.TotalAlloc, shell+uint64(64<<10+16*received.received)
			if i == 0 {
				shell = got
			} else if got > ceiling {
				t.Errorf("receiving %d bytes allocated %d, ceiling %d", received.received, got, ceiling)
			}
		})
	}
}

// TestStreamedRestoreLocalisesCorruption flips one bit in each place a cold
// transfer can be damaged — a DATA header, the snapshot prologue, a section
// CRC, a body byte in the first, a middle and the last chunk the body
// spans, a frame section's live-reference count and its first directory
// entry's element count, and the FIN — over link.Pipe, which has no frame
// CRC: the section CRC alone stands between a flipped body byte and a
// restored process, and it outranks what the body's decoder made of the
// damage, so a flipped count is a corrupt stream, not another program.
// Every cell must fail the session with a classified error that names the
// section, the chunk or the snapshot; the responder hands out no process,
// and the source stays as it was stopped, so the initiator rolls it back.
func TestStreamedRestoreLocalisesCorruption(t *testing.T) {
	e, p := stoppedLinpack(t, 200) // ≈ 320 KB: the frame body spans all five chunks
	direct, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("linpack", e)
	const chunk = 64 << 10
	cfg := Config{ChunkSize: chunk}
	// The initiator sends the OFFER, DATA chunks 0 to 4 as frames 2 to 6,
	// then the FIN. A DATA frame's payload starts after its 16-byte header;
	// chunk 0's opens with the snapshot's 8-byte prologue and the 32-byte
	// exec section, then the frame section's 12-byte header (kind, ID,
	// length) and body: a count of five live references, five 16-byte
	// references, the directory's count and its entries (major, minor,
	// type, element count). The section's CRC trails the body.
	const data, frameHdr = 16, 16 + 8 + 32
	const frameBody = frameHdr + 12
	body := int(binary.BigEndian.Uint32(direct[8+32+8:]))
	crcAt := 8 + 32 + 12 + (body+3)&^3
	for _, c := range []struct {
		name       string
		frame, pos int
		want       string
	}{
		{"DATA header", 3, 11, "at chunk 1"}, // chunk 1's sequence number
		{"snapshot prologue", 2, data + 3, "invalid sectioned snapshot"},
		{"section header", 2 + crcAt/chunk, data + crcAt%chunk + 3, "frame section 1"}, // its CRC trailer
		{"body byte, first chunk", 2, frameBody + 1000, "frame section 1"},
		{"body byte, middle chunk", 4, data + 1000, "frame section 1"},
		{"body byte, last chunk", 6, data + 1000, "frame section 1"},
		{"live-reference count", 2, frameBody + 3, "frame section 1"},
		{"directory element count", 2, frameBody + 4 + 5*16 + 4 + 15, "frame section 1"},
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

// refusingTransport fails the Send of the DATA frame carrying chunk n.
type refusingTransport struct {
	link.Transport
	n, sent int
}

var errRefusedChunk = errors.New("test: chunk refused")

func (r *refusingTransport) Send(b []byte) error {
	if wire.Name(b) == "data" {
		if r.sent++; r.sent > r.n {
			return errRefusedChunk
		}
	}
	return r.Transport.Send(b)
}

// TestColdRefusedChunkSendsNoFIN: a transport that refuses DATA chunk 2
// fails the capture streaming into it. No FIN follows the two chunks that
// went out; the responder, its stream cut, reports the transport and not a
// corrupt stream, and hands out no process; and the source, whose state
// the failed capture did not disturb, rolls back to its own exit.
func TestColdRefusedChunkSendsNoFIN(t *testing.T) {
	e, p := stoppedLinpack(t, 200)
	direct, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("linpack", e)
	rec := chaos.NewRecordOnly()
	a, b := link.Pipe()
	done := make(chan respondResult, 1)
	go func() {
		_, q, _, err := Respond(rec.Dest(b), reg, arch.SPARC20, Config{})
		b.Close()
		done <- respondResult{q, err}
	}()
	_, initErr := Initiate(&refusingTransport{Transport: rec.Source(a), n: 2}, e, p.Mach, "linpack", p, Config{ChunkSize: 64 << 10})
	a.Close()
	r := <-done
	if !errors.Is(initErr, errRefusedChunk) || r.q != nil || ClassifyFailure(r.err) != FailTransport {
		t.Fatalf("initiate = %v; respond = %v (class %s), process %v; want the refusal, FailTransport and no process",
			initErr, r.err, ClassifyFailure(r.err), r.q != nil)
	}
	data := 0
	for _, ev := range rec.Trace() {
		if ev.FromSource && ev.Class == "fin" {
			t.Error("a FIN followed the refused chunk")
		}
		if ev.FromSource && ev.Class == "data" {
			data++
		}
	}
	if data != 2 {
		t.Errorf("%d DATA frames went out, want the 2 before the refused one", data)
	}
	if re, err := p.Recapture(); err != nil || !bytes.Equal(re, direct) {
		t.Fatalf("source state disturbed (err %v)", err)
	}
	if res, err := Rollback(p, Config{}); err != nil || res.Migrated || res.ExitCode != 0 {
		t.Errorf("rolled-back source: %+v, %v; want exit 0", res, err)
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
