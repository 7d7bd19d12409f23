package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/vm"
	"repro/internal/xdr"
)

// listSrc builds a 60-node heap list and only then reaches its single
// migration point, so the captured state spans several small chunks.
// 60*61/2 = 1830; 1830 % 128 = 38.
const listSrc = `
	struct node { float data; struct node *link; };
	struct node *head;
	int main() {
		int i, sum;
		struct node *c;
		head = 0;
		for (i = 1; i <= 60; i++) {
			c = (struct node *) malloc(sizeof(struct node));
			c->data = i;
			c->link = head;
			head = c;
		}
		migrate_here();
		sum = 0;
		c = head;
		while (c) {
			sum += (int)c->data;
			c = c->link;
		}
		return sum % 128;
	}
`

const listExit = 38

// stoppedAtMigration runs the program on m until the immediately pending
// migration request is granted, returning the stopped process and its
// directly collected state.
func stoppedAtMigration(t testing.TB, e *Engine, m *arch.Machine) (*vm.Process, []byte) {
	t.Helper()
	p, err := e.NewProcess(m)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	var req Request
	req.Raise()
	p.PollHook = req.Hook()
	res, err := p.Run()
	if err != nil || !res.Migrated {
		t.Fatalf("setup: migrated=%v err=%v", res != nil && res.Migrated, err)
	}
	return p, res.State
}

// sendSectionedOverPipe migrates the stopped process p to machine dst
// through SendSectioned and ReceiveAndRestoreSectioned over an in-memory
// pipe — the chunk stream with no session around it.
func sendSectionedOverPipe(t *testing.T, e *Engine, p *vm.Process, dst *arch.Machine, cfg stream.Config) (*vm.Process, Timing, Timing, stream.WriterStats) {
	t.Helper()
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	type recvRes struct {
		q   *vm.Process
		tim Timing
		err error
	}
	recvc := make(chan recvRes, 1)
	go func() {
		q, tim, rerr := e.ReceiveAndRestoreSectioned(stream.NewReader(b, cfg), dst, nil)
		recvc <- recvRes{q, tim, rerr}
	}()
	w := stream.NewWriter(a, cfg)
	tx, err := e.SendSectioned(w, p.Mach, p)
	if err != nil {
		t.Fatal(err)
	}
	rr := <-recvc
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	return rr.q, tx, rr.tim, w.Stats()
}

func TestStreamedMigrationRoundTrip(t *testing.T) {
	e, err := NewEngine(listSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, direct := stoppedAtMigration(t, e, arch.DEC5000)
	q, tx, rx, ws := sendSectionedOverPipe(t, e, p, arch.SPARC20, stream.Config{ChunkSize: 256})
	if tx.Bytes <= len(direct) {
		t.Errorf("streamed %d bytes, direct state alone is %d", tx.Bytes, len(direct))
	}
	if ws.Chunks < 4 {
		t.Errorf("only %d chunks; state too small to exercise chunking", ws.Chunks)
	}
	if rx.Restore <= 0 || rx.Bytes != tx.Bytes {
		t.Errorf("receive timing = %+v, sent %d bytes", rx, tx.Bytes)
	}
	if q.Mach != arch.SPARC20 {
		t.Error("restored process not on destination machine")
	}
	re, err := q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Errorf("restored MSR graph differs: recapture %d bytes, direct capture %d bytes", len(re), len(direct))
	}
	q.MaxSteps = 1_000_000
	fin, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fin.ExitCode != listExit {
		t.Errorf("exit = %d, want %d", fin.ExitCode, listExit)
	}
}

// nestedSrc migrates from inside a called function's loop. SendSectioned
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
	e, err := NewEngine(nestedSrc, minic.PollPolicy{})
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
	direct := res.State

	q, _, _, _ := sendSectionedOverPipe(t, e, p, arch.SPARC20, stream.Config{ChunkSize: 256})
	re, err := q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Errorf("restored nested-frame MSR graph differs (%d vs %d bytes)", len(re), len(direct))
	}
	q.MaxSteps = 1_000_000
	fin, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fin.ExitCode != 40 {
		t.Errorf("exit = %d, want 40", fin.ExitCode)
	}
}

// TestSendSectionedIsHeaderPlusSnapshot pins what a cold transfer puts on
// the wire: the envelope header followed by exactly the snapshot
// CaptureSections returns, counted in Timing.Bytes — written to a plain
// buffer, and as the reassembled DATA payloads of a chunk stream at any
// chunk size (how the sender cuts its stream changes no byte of it).
func TestSendSectionedIsHeaderPlusSnapshot(t *testing.T) {
	for _, src := range []string{listSrc, nestedSrc} {
		e, err := NewEngine(src, minic.PollPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := stoppedAtMigration(t, e, arch.DEC5000)
		snap, err := p.CaptureSections(0)
		if err != nil {
			t.Fatal(err)
		}
		hdr := xdr.NewEncoder(32)
		putHeader(hdr, p.Mach.Name, e.Digest())
		want := append(hdr.Bytes(), snap...)

		var envelope bytes.Buffer
		tx, err := e.SendSectioned(nopCloser{&envelope}, p.Mach, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(envelope.Bytes(), want) || tx.Bytes != len(want) {
			t.Errorf("wrote %d bytes (Timing.Bytes %d), want the %d of header + snapshot", envelope.Len(), tx.Bytes, len(want))
		}
		for _, chunk := range []int{512, 4096, 0} {
			a, b := link.Pipe()
			got := make(chan []byte, 1)
			go func() {
				payload, _ := stream.NewReader(b, stream.Config{}).ReadAll()
				got <- payload
			}()
			if _, err := e.SendSectioned(stream.NewWriter(a, stream.Config{ChunkSize: chunk}), p.Mach, p); err != nil {
				t.Fatalf("chunk size %d: %v", chunk, err)
			}
			if payload := <-got; !bytes.Equal(payload, want) {
				t.Errorf("chunk size %d: the stream carried %d bytes that are not header + snapshot (%d)", chunk, len(payload), len(want))
			}
			a.Close()
			b.Close()
		}
	}
}

// receiveEnvelope streams payload through a chunk stream over an in-memory
// pipe, cut at chunk bytes, into ReceiveAndRestoreSectioned.
func receiveEnvelope(e *Engine, payload []byte, chunk int) (*vm.Process, error) {
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		w := stream.NewWriter(a, stream.Config{ChunkSize: chunk})
		w.Write(payload)
		w.Close()
	}()
	q, _, err := e.ReceiveAndRestoreSectioned(stream.NewReader(b, stream.Config{}), arch.SPARC20, nil)
	return q, err
}

// TestReceiveRejectsBadEnvelope holds the streamed receiver to the
// envelope header: a retired version, garbage, a wrong magic, a header cut
// short at any byte and another program's digest are refused before any
// section is restored, and no process is returned.
func TestReceiveRejectsBadEnvelope(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := stoppedAtMigration(t, e, arch.DEC5000)
	var envelope bytes.Buffer
	if _, err := e.SendSectioned(nopCloser{&envelope}, p.Mach, p); err != nil {
		t.Fatal(err)
	}
	if q, err := receiveEnvelope(e, envelope.Bytes(), 16); err != nil || q == nil {
		t.Fatalf("own envelope cut into 16-byte chunks: %v", err)
	}
	// A header carrying a retired version number (1, the monolithic
	// envelope) must not pass, whatever follows it.
	v1 := xdr.NewEncoder(32)
	v1.PutUint32(envMagic)
	v1.PutUint32(1)
	v1.PutString(arch.DEC5000.Name)
	v1.PutUint32(e.Digest())
	v1.PutOpaque([]byte("state-bytes"))
	bad := append([]byte{}, envelope.Bytes()...)
	bad[0] = 0
	other, err := NewEngine(`int main() { int i; for (i=0;i<3;i++){} return 2; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	type reject struct {
		name    string
		e       *Engine
		payload []byte
		want    error
	}
	cases := []reject{
		{"v1 envelope", e, v1.Bytes(), ErrVersionMismatch},
		{"garbage", e, []byte{1, 2, 3}, ErrBadEnvelope},
		{"bad magic", e, bad, ErrBadEnvelope},
		{"foreign program", other, envelope.Bytes(), ErrProgramMismatch},
	}
	hdr := xdr.NewEncoder(32)
	putHeader(hdr, p.Mach.Name, e.Digest())
	for cut := 0; cut < len(hdr.Bytes()); cut++ {
		cases = append(cases, reject{fmt.Sprintf("header cut at %d", cut), e, envelope.Bytes()[:cut], ErrBadEnvelope})
	}
	for _, c := range cases {
		if q, err := receiveEnvelope(c.e, c.payload, 8); !errors.Is(err, c.want) || q != nil {
			t.Errorf("%s: process %v, err %v; want %v and no process", c.name, q != nil, err, c.want)
		}
	}
}

// TestStreamedRestoreBoundsHostileLengths scripts a sender whose stream is
// well-formed up to a length the bytes never back: a valid envelope
// header, the real exec section, then a heap section header declaring
// 64 MiB whose directory claims all of it for one block — followed by the
// FIN, or by a stall — or a frame section whose declared length runs past
// everything sent before the FIN. The destination must turn no declared
// length into an allocation: it refuses with collect.ErrCorruptStream (a
// stalled one with the transport's error once the sender gives up),
// returns no process, and allocates no more than 64 KiB plus sixteen times
// the bytes it received beyond what the process shell itself takes — its
// globals and its pushed frames, measured on a stream that ends right
// after the exec section.
func TestStreamedRestoreBoundsHostileLengths(t *testing.T) {
	e, err := NewEngine(listSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := stoppedAtMigration(t, e, arch.DEC5000)
	secs, release, err := p.Sections()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(secs) != 4 || secs[1].Kind != snapshot.KindHeap || secs[2].Kind != snapshot.KindFrame {
		t.Fatalf("fixture is not exec, one heap component, one frame, globals: %d sections", len(secs))
	}
	// Each stream opens with the envelope header, the prologue and the
	// real exec section.
	section := func(enc *xdr.Encoder, kind snapshot.Kind, id, length, crc uint32, body []byte) {
		enc.Put4Uint32(uint32(kind), id, length, crc)
		enc.PutFixedOpaque(body)
	}
	opening := func() *xdr.Encoder {
		enc := xdr.NewEncoder(1024)
		putHeader(enc, p.Mach.Name, e.Digest())
		enc.PutUint32(snapshot.Magic)
		enc.PutUint32(uint32(len(secs)))
		section(enc, snapshot.KindExec, 0, uint32(len(secs[0].Body)), crc32.ChecksumIEEE(secs[0].Body), secs[0].Body)
		return enc
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
	heap := opening()
	section(heap, snapshot.KindHeap, 0, declared, 0, claim.Bytes())
	past := opening()
	section(past, snapshot.KindHeap, 0, uint32(len(secs[1].Body)), crc32.ChecksumIEEE(secs[1].Body), secs[1].Body)
	frame := secs[2].Body
	section(past, snapshot.KindFrame, 1, uint32(len(frame))+1<<20, 0, frame[:len(frame)/2&^3])

	var shell uint64
	for i, c := range []struct {
		name    string
		payload []byte
		stall   bool
	}{
		{"exec section, then FIN", opening().Bytes(), false},
		{"heap directory claims 64 MiB, then FIN", heap.Bytes(), false},
		{"heap directory claims 64 MiB, then a stall", heap.Bytes(), true},
		{"frame section runs past the FIN", past.Bytes(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := link.Pipe()
			received := &link.Measured{T: b}
			// Small chunks: a stalled sender has shipped all but the tail.
			w := stream.NewWriter(a, stream.Config{ChunkSize: 64})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			type rr struct {
				q   *vm.Process
				err error
			}
			done := make(chan rr, 1)
			go func() {
				q, _, err := e.ReceiveAndRestoreSectioned(stream.NewReader(received, stream.Config{}), arch.SPARC20, nil)
				b.Close()
				done <- rr{q, err}
			}()
			if _, err := w.Write(c.payload); err != nil {
				t.Fatal(err)
			}
			if c.stall {
				time.Sleep(50 * time.Millisecond)
				b.Close()
			}
			w.Close()
			r := <-done
			runtime.ReadMemStats(&after)
			if r.q != nil || r.err == nil || !c.stall && !errors.Is(r.err, collect.ErrCorruptStream) {
				t.Errorf("process %v, err %v; want no process and ErrCorruptStream", r.q != nil, r.err)
			}
			got, ceiling := after.TotalAlloc-before.TotalAlloc, shell+uint64(64<<10+16*received.BytesReceived)
			if i == 0 {
				shell = got
			} else if got > ceiling {
				t.Errorf("receiving %d bytes allocated %d, ceiling %d", received.BytesReceived, got, ceiling)
			}
		})
	}
}
