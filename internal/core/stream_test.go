package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/stream"
	"repro/internal/vm"
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

// pipeDialer is the session test network: every dial creates an in-memory
// pipe, hands the peer end to the accept side, and optionally arms a fault
// injector on the dialer's end of that specific connection.
type pipeDialer struct {
	mu     sync.Mutex
	dials  int
	conns  chan link.Transport
	faults map[int]func(*stream.Fault)
}

func newPipeDialer() *pipeDialer {
	return &pipeDialer{
		conns:  make(chan link.Transport, 4),
		faults: map[int]func(*stream.Fault){},
	}
}

func (n *pipeDialer) dial() (link.Transport, error) {
	n.mu.Lock()
	arm := n.faults[n.dials]
	n.dials++
	n.mu.Unlock()
	a, b := link.Pipe()
	f := stream.NewFault(a)
	if arm != nil {
		arm(f)
	}
	n.conns <- b
	return f, nil
}

func (n *pipeDialer) accept() (link.Transport, error) { return <-n.conns, nil }

func TestStreamedMigrationRoundTrip(t *testing.T) {
	e, err := NewEngine(listSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, direct := stoppedAtMigration(t, e, arch.DEC5000)

	cfg := stream.Config{ChunkSize: 256, Window: 4}
	a, b := link.Pipe()
	type recvRes struct {
		q   *vm.Process
		tim Timing
		err error
	}
	recvc := make(chan recvRes, 1)
	go func() {
		r := stream.NewReader(b, cfg)
		q, tim, rerr := e.ReceiveAndRestoreStream(r, arch.SPARC20)
		recvc <- recvRes{q, tim, rerr}
	}()

	w := stream.NewWriter(a, cfg)
	tx, err := e.SendStream(w, p.Mach, p, cfg.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Bytes <= len(direct) {
		t.Errorf("streamed %d bytes, direct state alone is %d", tx.Bytes, len(direct))
	}
	if w.Stats().Chunks < 4 {
		t.Errorf("only %d chunks; state too small to exercise chunking", w.Stats().Chunks)
	}

	rr := <-recvc
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	if rr.tim.Restore <= 0 || rr.tim.Bytes != tx.Bytes {
		t.Errorf("receive timing = %+v, sent %d bytes", rr.tim, tx.Bytes)
	}
	q := rr.q
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

func TestStreamedMigrationSurvivesDisconnect(t *testing.T) {
	// The full resume path: the first connection is killed after 5 sends
	// (mid-transfer, well before FIN), the session redials, the reader
	// reaccepts, and the transfer resumes from the last acknowledged
	// chunk. The restored MSR graph must be byte-identical to a direct
	// capture. Run under -race this also proves the goroutine structure.
	e, err := NewEngine(listSrc, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	p, direct := stoppedAtMigration(t, e, arch.DEC5000)

	cfg := stream.Config{ChunkSize: 256, Window: 4, AckEvery: 2}
	net := newPipeDialer()
	net.faults[0] = func(f *stream.Fault) { f.FailAfterSends(5) }

	sess := stream.NewSession(net.dial, 7, cfg)

	type recvRes struct {
		q     *vm.Process
		stats stream.ReaderStats
		err   error
	}
	recvc := make(chan recvRes, 1)
	go func() {
		conn, aerr := net.accept()
		if aerr != nil {
			recvc <- recvRes{err: aerr}
			return
		}
		r := stream.NewReader(conn, cfg)
		r.SetReaccept(net.accept)
		q, _, rerr := e.ReceiveAndRestoreStream(r, arch.SPARC20)
		recvc <- recvRes{q, r.Stats(), rerr}
	}()

	if _, err := e.SendStream(sess, p.Mach, p, cfg.ChunkSize); err != nil {
		t.Fatal(err)
	}
	if sess.Stats().Reconnects < 1 {
		t.Errorf("sender reconnects = %d, want >= 1", sess.Stats().Reconnects)
	}

	rr := <-recvc
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	if rr.stats.Reconnects < 1 {
		t.Errorf("receiver reconnects = %d, want >= 1", rr.stats.Reconnects)
	}
	re, err := rr.q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Fatalf("restored MSR graph after resume differs from direct capture (%d vs %d bytes)", len(re), len(direct))
	}
	rr.q.MaxSteps = 1_000_000
	fin, err := rr.q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fin.ExitCode != listExit {
		t.Errorf("exit = %d, want %d", fin.ExitCode, listExit)
	}
}

// nestedSrc stops inside a called function, so the capture spans two
// frames: sum_list is at the poll, main is at the call statement. The
// streamed path re-collects the stopped process (CaptureTo), which must
// see the outer frame's call site even though the migration has already
// unwound the interpreter. Sum of 3i for i in [0,40) is 2340; 2340 % 100
// = 40.
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

	cfg := stream.Config{ChunkSize: 256, Window: 4}
	a, b := link.Pipe()
	type recvRes struct {
		q   *vm.Process
		err error
	}
	recvc := make(chan recvRes, 1)
	go func() {
		r := stream.NewReader(b, cfg)
		q, _, rerr := e.ReceiveAndRestoreStream(r, arch.SPARC20)
		recvc <- recvRes{q, rerr}
	}()
	w := stream.NewWriter(a, cfg)
	if _, err := e.SendStream(w, p.Mach, p, cfg.ChunkSize); err != nil {
		t.Fatal(err)
	}
	rr := <-recvc
	if rr.err != nil {
		t.Fatal(rr.err)
	}
	re, err := rr.q.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, direct) {
		t.Errorf("restored nested-frame MSR graph differs (%d vs %d bytes)", len(re), len(direct))
	}
	rr.q.MaxSteps = 1_000_000
	fin, err := rr.q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fin.ExitCode != 40 {
		t.Errorf("exit = %d, want 40", fin.ExitCode)
	}
}

func TestOpenStreamRejects(t *testing.T) {
	e, err := NewEngine(countdownSrc, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// A monolithic (version 1) envelope must not pass as streamed.
	v1 := e.Seal([]byte("state-bytes"), arch.DEC5000)
	if _, _, err := e.OpenStream(v1); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("v1 envelope: %v", err)
	}
	if _, _, err := e.OpenStream([]byte{1, 2, 3}); !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("garbage: %v", err)
	}
	// A streamed header from a different program must be rejected.
	other, err := NewEngine(`int main() { int i; for (i=0;i<3;i++){} return 2; }`, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := stoppedAtMigration(t, e, arch.DEC5000)
	cfg := stream.Config{ChunkSize: 1024, Window: 4}
	a, b := link.Pipe()
	errc := make(chan error, 1)
	go func() {
		r := stream.NewReader(b, cfg)
		payload, rerr := r.ReadAll()
		if rerr != nil {
			errc <- rerr
			return
		}
		_, _, oerr := other.OpenStream(payload)
		errc <- oerr
	}()
	w := stream.NewWriter(a, cfg)
	if _, err := e.SendStream(w, p.Mach, p, cfg.ChunkSize); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrProgramMismatch) {
		t.Errorf("foreign program streamed envelope: %v", err)
	}
}
