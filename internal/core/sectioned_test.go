package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/link"
	"repro/internal/minic"
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

func TestOpenSectionedRejects(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// A header carrying a retired version number (1, the monolithic
	// envelope) must not pass, whatever follows it.
	v1 := xdr.NewEncoder(32)
	v1.PutUint32(envMagic)
	v1.PutUint32(1)
	v1.PutString(arch.DEC5000.Name)
	v1.PutUint32(e.Digest())
	v1.PutOpaque([]byte("state-bytes"))
	if _, err := e.OpenSectioned(v1.Bytes()); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("v1 envelope: %v", err)
	}
	if _, err := e.OpenSectioned([]byte{1, 2, 3}); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("garbage: %v", err)
	}
	// A sectioned envelope from a different program must be rejected on
	// its header digest, before any section is decoded.
	other, err := NewEngine(`int main() { int i; for (i=0;i<3;i++){} return 2; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := stoppedAtMigration(t, e, arch.DEC5000)
	var envelope bytes.Buffer
	if _, err := e.SendSectioned(nopCloser{&envelope}, p.Mach, p); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenSectioned(envelope.Bytes()); err != nil {
		t.Errorf("own envelope: %v", err)
	}
	// A wrong magic, and a header cut short at any byte, are malformed.
	bad := append([]byte{}, envelope.Bytes()...)
	bad[0] = 0
	if _, err := e.OpenSectioned(bad); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("bad magic: %v", err)
	}
	hdr := xdr.NewEncoder(32)
	putHeader(hdr, p.Mach.Name, e.Digest())
	for cut := 0; cut < len(hdr.Bytes()); cut++ {
		if _, err := e.OpenSectioned(envelope.Bytes()[:cut]); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("header cut at %d: %v", cut, err)
		}
	}
	if _, err := other.OpenSectioned(envelope.Bytes()); !errors.Is(err, ErrProgramMismatch) {
		t.Errorf("foreign program sectioned envelope: %v", err)
	}
}
