package stream

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/xdr"
)

// testPayload builds deterministic pseudo-random bytes.
func testPayload(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

// runReader drains a Reader in a goroutine, returning a channel with the
// reassembled stream.
type readResult struct {
	data  []byte
	err   error
	stats ReaderStats
}

func runReader(r *Reader) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		data, err := r.ReadAll()
		out <- readResult{data, err, r.Stats()}
	}()
	return out
}

func TestWriterReaderRoundTrip(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2}
	sizes := []int{0, 1, 1023, 1024, 1025, 64 * 1024, 200000}
	for _, n := range sizes {
		a, b := link.Pipe()
		res := runReader(NewReader(b, cfg))
		w := NewWriter(a, cfg)
		payload := testPayload(n, int64(n))
		// Write in awkward slices to exercise chunk boundary handling.
		for off := 0; off < len(payload); {
			m := 700
			if off+m > len(payload) {
				m = len(payload) - off
			}
			if _, err := w.Write(payload[off : off+m]); err != nil {
				t.Fatalf("n=%d: write: %v", n, err)
			}
			off += m
		}
		if err := w.Close(); err != nil {
			t.Fatalf("n=%d: close: %v", n, err)
		}
		r := <-res
		if r.err != nil {
			t.Fatalf("n=%d: read: %v", n, r.err)
		}
		if !bytes.Equal(r.data, payload) {
			t.Fatalf("n=%d: reassembled stream differs (%d vs %d bytes)", n, len(r.data), len(payload))
		}
		ws := w.Stats()
		wantChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
		if ws.Chunks != wantChunks || r.stats.Chunks != wantChunks {
			t.Errorf("n=%d: chunks sent=%d recv=%d, want %d", n, ws.Chunks, r.stats.Chunks, wantChunks)
		}
		a.Close()
		b.Close()
	}
}

func TestWriterReaderLoopbackTCP(t *testing.T) {
	srv, cli, cleanup, err := link.LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	cfg := Config{ChunkSize: 32 * 1024, Window: 8}
	payload := testPayload(1<<20, 7)
	res := runReader(NewReader(srv, cfg))
	w := NewWriter(cli, cfg)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Error("TCP stream mismatch")
	}
}

func TestReaderDeliversIncrementally(t *testing.T) {
	cfg := Config{ChunkSize: 100, Window: 2, AckEvery: 1}
	a, b := link.Pipe()
	defer a.Close()
	defer b.Close()
	payload := testPayload(950, 3)
	r := NewReader(b, cfg)
	w := NewWriter(a, cfg)
	go func() {
		w.Write(payload)
		w.Close()
	}()
	var got []byte
	chunks := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Every chunk except the tail is exactly ChunkSize: in-order
		// incremental delivery, not one final buffer.
		if chunks < 9 && len(p) != 100 {
			t.Fatalf("chunk %d has %d bytes", chunks, len(p))
		}
		chunks++
		got = append(got, p...)
	}
	if chunks != 10 || !bytes.Equal(got, payload) {
		t.Errorf("incremental read: %d chunks, match=%v", chunks, bytes.Equal(got, payload))
	}
}

func TestWriterFailsOnDeadTransportWithoutSession(t *testing.T) {
	cfg := Config{ChunkSize: 256, Window: 2}
	a, b := link.Pipe()
	defer b.Close()
	fa := NewFault(a).FailAfterSends(3)
	res := runReader(NewReader(b, cfg))
	w := NewWriter(fa, cfg)
	payload := testPayload(64*1024, 11)
	_, werr := w.Write(payload)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Error("transfer over a killed transport reported success")
	}
	if r := <-res; r.err == nil {
		t.Error("reader reported success after sender death with no reaccept")
	}
}

func TestParseMessageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		marshalSeq(99, 0),   // unknown type
		marshalHello(1)[:6], // truncated
		append([]byte{0, 0, 0, 0}, marshalHello(1)[4:]...), // bad magic
	}
	for i, raw := range cases {
		if _, err := parseMessage(raw); !errors.Is(err, ErrProtocol) {
			t.Errorf("case %d: got %v, want ErrProtocol", i, err)
		}
	}
}

// pipeNet hands the sender fresh in-memory connections and delivers the
// peer ends to the receiver — a reconnectable network made of link.Pipe.
type pipeNet struct {
	mu    sync.Mutex
	conns chan link.Transport
	dials int
	// faults wraps the sender side of the i-th dial.
	faults map[int]func(link.Transport) link.Transport
	// dialErrs fails the i-th dial outright.
	dialErrs map[int]error
}

func newPipeNet() *pipeNet {
	return &pipeNet{conns: make(chan link.Transport, 4)}
}

func (n *pipeNet) dial() (link.Transport, error) {
	n.mu.Lock()
	i := n.dials
	n.dials++
	fault := n.faults[i]
	derr := n.dialErrs[i]
	n.mu.Unlock()
	if derr != nil {
		return nil, derr
	}
	a, b := link.Pipe()
	var t link.Transport = a
	if fault != nil {
		t = fault(a)
	}
	n.conns <- b
	return t, nil
}

func (n *pipeNet) accept() (link.Transport, error) {
	return <-n.conns, nil
}

func sessionTransfer(t *testing.T, net *pipeNet, cfg Config, payload []byte, wrapReceiver func(link.Transport) link.Transport) (SessionStats, readResult) {
	t.Helper()
	// The session dials eagerly from its pump, which queues the peer end
	// for the receiver's accept below.
	s := NewSession(net.dial, 42, cfg)
	first, err := net.accept()
	if err != nil {
		t.Fatal(err)
	}
	if wrapReceiver != nil {
		first = wrapReceiver(first)
	}
	r := NewReader(first, cfg)
	r.SetReaccept(net.accept)
	res := runReader(r)

	if _, err := s.Write(payload); err != nil {
		t.Fatalf("session write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("session close: %v", err)
	}
	return s.Stats(), <-res
}

func TestSessionResumesAfterMidTransferDisconnect(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2, RetryBase: 1e6 /* 1ms */}
	net := newPipeNet()
	// First connection dies after 7 successful sends (hello + 6 chunks):
	// the transfer is killed at a chunk boundary mid-stream.
	net.faults = map[int]func(link.Transport) link.Transport{
		0: func(tr link.Transport) link.Transport { return NewFault(tr).FailAfterSends(7) },
	}
	payload := testPayload(40*1024, 21) // 40 chunks
	// The session must dial first so pipeNet has a connection queued for
	// the receiver; NewSession dials eagerly from its pump.
	stats, r := sessionTransfer(t, net, cfg, payload, nil)
	if r.err != nil {
		t.Fatalf("read: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("stream after resume differs from original")
	}
	if stats.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", stats.Reconnects)
	}
	if r.stats.Reconnects < 1 {
		t.Errorf("reader reconnects = %d, want >= 1", r.stats.Reconnects)
	}
	if stats.AckedSeq != 40 {
		t.Errorf("final ack watermark = %d, want 40", stats.AckedSeq)
	}
}

func TestSessionSurvivesRepeatedDisconnects(t *testing.T) {
	cfg := Config{ChunkSize: 512, Window: 4, AckEvery: 2, RetryBase: 1e6}
	net := newPipeNet()
	net.faults = map[int]func(link.Transport) link.Transport{
		0: func(tr link.Transport) link.Transport { return NewFault(tr).FailAfterSends(4) },
		1: func(tr link.Transport) link.Transport { return NewFault(tr).FailAfterSends(9) },
		2: func(tr link.Transport) link.Transport { return NewFault(tr).FailAfterRecvs(3) },
	}
	net.dialErrs = map[int]error{3: errors.New("destination briefly unreachable")}
	payload := testPayload(30*1024, 5) // 60 chunks
	stats, r := sessionTransfer(t, net, cfg, payload, nil)
	if r.err != nil {
		t.Fatalf("read: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("stream after repeated resumes differs from original")
	}
	if stats.Reconnects < 3 {
		t.Errorf("reconnects = %d, want >= 3", stats.Reconnects)
	}
}

func TestSessionRewindsOnCorruptChunk(t *testing.T) {
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2}
	net := newPipeNet()
	payload := testPayload(20*1024, 9)
	// The receiver's 4th frame (hello is the sender's; receiver sees
	// data frames from 1) arrives corrupt: link.ErrChecksum surfaces and
	// must become a NACK re-request, not a failed migration.
	stats, r := sessionTransfer(t, net, cfg, payload, func(tr link.Transport) link.Transport {
		return NewFault(tr).CorruptRecv(4)
	})
	if r.err != nil {
		t.Fatalf("read: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatal("stream after corruption rewind differs from original")
	}
	if r.stats.Nacks != 1 {
		t.Errorf("reader nacks = %d, want 1", r.stats.Nacks)
	}
	if stats.Retransmits < 1 {
		t.Errorf("retransmits = %d, want >= 1", stats.Retransmits)
	}
	if stats.Reconnects != 0 {
		t.Errorf("reconnects = %d, corruption should rewind over the live connection", stats.Reconnects)
	}
}

func TestSessionRetriesExhausted(t *testing.T) {
	dialErr := errors.New("connection refused")
	dial := func() (link.Transport, error) { return nil, dialErr }
	s := NewSession(dial, 1, Config{MaxRetries: 2, RetryBase: 1e6, RetryMax: 2e6})
	// The pump fails in the background; Write must unblock with the error
	// rather than hanging on a window that will never drain.
	payload := testPayload(1<<20, 13)
	_, werr := s.Write(payload)
	cerr := s.Close()
	if werr == nil && cerr == nil {
		t.Fatal("session succeeded with no reachable destination")
	}
	if !errors.Is(cerr, ErrRetriesExhausted) && !errors.Is(werr, ErrRetriesExhausted) {
		t.Errorf("want ErrRetriesExhausted, got write=%v close=%v", werr, cerr)
	}
}

func TestSessionTransportHandoff(t *testing.T) {
	cfg := Config{ChunkSize: 4096, Window: 4}
	net := newPipeNet()
	payload := testPayload(16*1024, 17)

	done := make(chan error, 1)
	go func() {
		tr, err := net.accept()
		if err != nil {
			done <- err
			return
		}
		r := NewReader(tr, cfg)
		r.SetReaccept(net.accept)
		if _, err := r.ReadAll(); err != nil {
			done <- err
			return
		}
		// Application-level acknowledgement after the snapshot, as migd
		// sends once restoration succeeds.
		done <- tr.Send([]byte("restored"))
	}()

	s := NewSession(net.dial, 7, cfg)
	if _, err := s.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ack, err := s.Transport().Recv()
	if err != nil || string(ack) != "restored" {
		t.Fatalf("application ack after session: %q, %v", ack, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecorderAndAckRTT verifies the observability hooks of the
// robust path: a corruption rewind leaves structured events in the
// session's flight recorder (both sides share one here), and completed
// transfers feed the ack round-trip histogram.
func TestFlightRecorderAndAckRTT(t *testing.T) {
	before := obs.Default.Histogram("stream.ack.rtt").Count()
	fr := obs.NewFlightRecorder(0)
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2, Recorder: fr}
	net := newPipeNet()
	payload := testPayload(20*1024, 21)
	_, r := sessionTransfer(t, net, cfg, payload, func(tr link.Transport) link.Transport {
		return NewFault(tr).CorruptRecv(4)
	})
	if r.err != nil {
		t.Fatalf("read: %v", r.err)
	}
	kinds := map[string]bool{}
	for _, ev := range fr.Events() {
		kinds[ev.Kind] = true
	}
	if !kinds["stream.nack"] {
		t.Errorf("recorder missing stream.nack event: %v", kinds)
	}
	if !kinds["stream.rewind"] {
		t.Errorf("recorder missing stream.rewind event: %v", kinds)
	}
	if after := obs.Default.Histogram("stream.ack.rtt").Count(); after <= before {
		t.Errorf("ack RTT histogram did not grow (%d -> %d)", before, after)
	}
}

// TestSealMatchesXDRDataMessage pins the in-place DATA framing to the wire
// format the XDR encoder used to produce — header, opaque length and zero
// padding — for every payload length modulo four, and checks that sealing
// twice (a Session retransmit) is idempotent.
func TestSealMatchesXDRDataMessage(t *testing.T) {
	for n := 0; n <= 9; n++ {
		payload := testPayload(n, int64(n))
		want := xdr.NewEncoder(64)
		want.PutUint32(streamMagic)
		want.PutUint32(msgData)
		want.PutUint32(7)
		want.PutUint32(crc32.ChecksumIEEE(payload))
		want.PutOpaque(payload)

		// A recycled frame: stale bytes where the padding will go.
		frame := append(chunkFrame(bytes.Repeat([]byte{0xEE}, dataHdr+16), 9), payload...)
		c := chunk{seq: 7, frame: frame}
		for pass := 0; pass < 2; pass++ {
			if got := c.seal(); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("len %d pass %d: seal = % x, want % x", n, pass, got, want.Bytes())
			}
		}
		m, err := parseMessage(c.seal())
		if err != nil || m.seq != 7 || !bytes.Equal(m.payload, payload) {
			t.Fatalf("len %d: parse = %+v, %v", n, m, err)
		}
	}
}
