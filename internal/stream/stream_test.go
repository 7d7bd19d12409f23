package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
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

// tamper is a test-local transport: it kills the connection once
// failAfterSends Sends have succeeded (negative never does), and passes
// every frame the peer delivers through onRecv, which may rewrite it or
// turn it into an error.
type tamper struct {
	link.Transport
	mu             sync.Mutex
	failAfterSends int
	recvs          int
	onRecv         func(n int, frame []byte) ([]byte, error)
}

var errKilled = errors.New("test: transport killed")

func (f *tamper) Send(p []byte) error {
	f.mu.Lock()
	dead := f.failAfterSends == 0
	if f.failAfterSends > 0 {
		f.failAfterSends--
	}
	f.mu.Unlock()
	if dead {
		f.Transport.Close()
		return errKilled
	}
	return f.Transport.Send(p)
}

func (f *tamper) Recv() ([]byte, error) {
	frame, err := f.Transport.Recv()
	if err != nil || f.onRecv == nil {
		return frame, err
	}
	f.mu.Lock()
	f.recvs++
	n := f.recvs
	f.mu.Unlock()
	return f.onRecv(n, frame)
}

func TestWriterFailsOnDeadTransportWithoutSession(t *testing.T) {
	cfg := Config{ChunkSize: 256, Window: 2}
	a, b := link.Pipe()
	defer b.Close()
	fa := &tamper{Transport: a, failAfterSends: 3}
	res := runReader(NewReader(b, cfg))
	w := NewWriter(fa, cfg)
	payload := testPayload(64*1024, 11)
	_, werr := w.Write(payload)
	cerr := w.Close()
	if werr == nil && cerr == nil {
		t.Error("transfer over a killed transport reported success")
	}
	if r := <-res; r.err == nil {
		t.Error("reader reported success after sender death")
	}
}

// TestReaderRejectsDamagedStream damages the 4th frame the receiver sees
// in each way the layer must detect — a flipped payload byte under a
// passing link checksum, a failing link checksum, a skipped chunk, a FIN
// that disagrees with what arrived — and expects the typed error on the
// Reader, a failed Writer, and no delivered stream.
func TestReaderRejectsDamagedStream(t *testing.T) {
	cases := []struct {
		name   string
		onRecv func(n int, frame []byte) ([]byte, error)
		want   error
	}{
		{"payload byte flipped", func(n int, f []byte) ([]byte, error) {
			if n == 4 {
				f[dataHdr+10] ^= 0x40
			}
			return f, nil
		}, ErrVerify},
		{"link checksum", func(n int, f []byte) ([]byte, error) {
			if n == 4 {
				return nil, link.ErrChecksum
			}
			return f, nil
		}, link.ErrChecksum},
		{"chunk out of order", func(n int, f []byte) ([]byte, error) {
			if n == 4 {
				binary.BigEndian.PutUint32(f[8:], 7) // seq word
			}
			return f, nil
		}, ErrProtocol},
		{"fin disagrees", func(n int, f []byte) ([]byte, error) {
			if binary.BigEndian.Uint32(f[4:]) == msgFin {
				f[len(f)-1] ^= 1 // whole-stream crc
			}
			return f, nil
		}, ErrVerify},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2}
			a, b := link.Pipe()
			defer a.Close()
			res := make(chan readResult, 1)
			go func() {
				r := NewReader(&tamper{Transport: b, failAfterSends: -1, onRecv: c.onRecv}, cfg)
				data, err := r.ReadAll()
				// A session closes the connection under a failed receive;
				// that is what unblocks the sender.
				b.Close()
				res <- readResult{data, err, r.Stats()}
			}()
			w := NewWriter(a, cfg)
			_, werr := w.Write(testPayload(20*1024, 5))
			if cerr := w.Close(); werr == nil && cerr == nil {
				t.Error("writer reported success for a stream the reader rejected")
			}
			r := <-res
			if !errors.Is(r.err, c.want) {
				t.Errorf("reader err = %v, want %v", r.err, c.want)
			}
			if r.data != nil {
				t.Errorf("reader delivered %d bytes of a rejected stream", len(r.data))
			}
		})
	}
}

func TestParseMessageRejectsGarbage(t *testing.T) {
	ack := marshalAck(1)
	unknown := marshalAck(0)
	binary.BigEndian.PutUint32(unknown[4:], 5) // a retired type number
	cases := [][]byte{
		nil,
		{1, 2, 3},
		unknown,
		ack[:10],                               // truncated
		append([]byte{0, 0, 0, 0}, ack[4:]...), // bad magic
	}
	for i, raw := range cases {
		if _, err := parseMessage(raw); !errors.Is(err, ErrProtocol) {
			t.Errorf("case %d: got %v, want ErrProtocol", i, err)
		}
	}
}

// TestFlightRecorderAndAckRTT verifies the observability hooks: a
// rejected stream leaves a structured event naming the chunk in the
// flight recorder, and completed transfers feed the ack round-trip
// histogram.
func TestFlightRecorderAndAckRTT(t *testing.T) {
	before := obs.Default.Histogram("stream.ack.rtt").Count()
	fr := obs.NewFlightRecorder(0)
	cfg := Config{ChunkSize: 1024, Window: 4, AckEvery: 2, Recorder: fr}
	payload := testPayload(20*1024, 21)

	a, b := link.Pipe()
	res := runReader(NewReader(b, cfg))
	w := NewWriter(a, cfg)
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-res; r.err != nil || !bytes.Equal(r.data, payload) {
		t.Fatalf("clean transfer: err %v, %d bytes", r.err, len(r.data))
	}
	a.Close()
	b.Close()
	if n := len(fr.Events()); n != 0 {
		t.Errorf("clean transfer recorded %d events, want none", n)
	}
	if after := obs.Default.Histogram("stream.ack.rtt").Count(); after <= before {
		t.Errorf("ack RTT histogram did not grow (%d -> %d)", before, after)
	}

	a, b = link.Pipe()
	defer a.Close()
	go func() {
		w := NewWriter(a, cfg)
		w.Write(payload)
		w.Close()
	}()
	r := NewReader(&tamper{Transport: b, failAfterSends: -1, onRecv: func(n int, f []byte) ([]byte, error) {
		if n == 4 {
			return nil, link.ErrChecksum
		}
		return f, nil
	}}, cfg)
	_, err := r.ReadAll()
	b.Close()
	if !errors.Is(err, link.ErrChecksum) {
		t.Fatalf("read err = %v, want the link checksum failure", err)
	}
	evs := fr.Events()
	if len(evs) != 1 || evs[0].Kind != "stream.reject" || !strings.Contains(evs[0].Detail, "chunk 3") {
		t.Errorf("recorder events = %+v, want one stream.reject naming chunk 3", evs)
	}
}

// TestSealMatchesXDRDataMessage pins the in-place DATA framing to the wire
// format the XDR encoder used to produce — header, opaque length and zero
// padding — for every payload length modulo four, and checks that sealing
// twice is idempotent.
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
