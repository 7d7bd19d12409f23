package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// testPayload builds deterministic pseudo-random bytes.
func testPayload(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

// runReader drains a Reader chunk by chunk in a goroutine, returning a
// channel with the reassembled stream and the number of chunks it came in.
type readResult struct {
	data   []byte
	err    error
	chunks int
}

func runReader(r *Reader) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		var res readResult
		for {
			p, err := r.Next()
			if err != nil {
				if err != io.EOF {
					res.data, res.err = nil, err
				}
				out <- res
				return
			}
			res.data = append(res.data, p...)
			res.chunks++
		}
	}()
	return out
}

func TestWriterReaderRoundTrip(t *testing.T) {
	cfg := Config{ChunkSize: 1024}
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
		if wantChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize; r.chunks != wantChunks {
			t.Errorf("n=%d: %d chunks arrived, want %d", n, r.chunks, wantChunks)
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
	cfg := Config{ChunkSize: 32 * 1024}
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
	cfg := Config{ChunkSize: 100}
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

// tamper is a test-local transport: once failAfterSends Sends have
// succeeded (negative never happens) every later Send fails — and kills
// the connection, unless halfDead leaves the read side open and silent —
// and every frame the peer delivers passes through onRecv, which may
// rewrite it or turn it into an error.
type tamper struct {
	link.Transport
	mu             sync.Mutex
	failAfterSends int
	halfDead       bool
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
		if !f.halfDead {
			f.Transport.Close()
		}
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

// TestWriterFailsOnDeadTransportWithoutSession kills the sender's
// transport after three frames, with no session above to close anything.
// Dead outright, or half dead — sends fail while the read side stays open
// and silent: either way Close must return the send error, and promptly.
// A Writer reads nothing, so a silent read side cannot hold it.
func TestWriterFailsOnDeadTransportWithoutSession(t *testing.T) {
	for _, halfDead := range []bool{false, true} {
		cfg := Config{ChunkSize: 256}
		a, b := link.Pipe()
		fa := &tamper{Transport: a, failAfterSends: 3, halfDead: halfDead}
		res := runReader(NewReader(b, cfg))
		w := NewWriter(fa, cfg)
		closed := make(chan error, 1)
		go func() {
			_, werr := w.Write(testPayload(64*1024, 11))
			if cerr := w.Close(); werr == nil {
				werr = cerr
			}
			closed <- werr
		}()
		select {
		case err := <-closed:
			if !errors.Is(err, errKilled) {
				t.Errorf("halfDead=%v: transfer over a killed transport returned %v, want the send error", halfDead, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("halfDead=%v: Close still blocked 5s after the send failed", halfDead)
		}
		// What a session does next: close the connection, which ends the
		// reader too.
		a.Close()
		if r := <-res; r.err == nil {
			t.Errorf("halfDead=%v: reader reported success after sender death", halfDead)
		}
		b.Close()
	}
}

// TestReaderRejectsDamagedStream damages the 4th frame the receiver sees
// in each way the layer must detect — a failing link checksum, a skipped
// chunk, a payload length that no longer fits its frame, a FIN that
// disagrees with what arrived — and expects the typed error on the Reader,
// naming the chunk, and no delivered stream. The verdict is the Reader's
// alone: the stream is one-directional, so the Writer hears nothing back,
// and telling the sender is the session's RESTORED (or its absence). (A
// flipped payload byte is not the stream's to catch: DATA carries no
// checksum, and the snapshot's section CRC above it covers the content end
// to end.)
func TestReaderRejectsDamagedStream(t *testing.T) {
	cases := []struct {
		name   string
		onRecv func(n int, frame []byte) ([]byte, error)
		want   error
	}{
		{"payload length flipped", func(n int, f []byte) ([]byte, error) {
			if n == 4 {
				f[14] ^= 0x01 // the opaque length's third byte: 1024 -> 1280
			}
			return f, nil
		}, ErrProtocol},
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
			if wire.Name(f) == "fin" {
				f[len(f)-1] ^= 1 // the declared byte count
			}
			return f, nil
		}, ErrVerify},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{ChunkSize: 1024}
			a, b := link.Pipe()
			defer a.Close()
			res := make(chan readResult, 1)
			go func() {
				data, err := NewReader(&tamper{Transport: b, failAfterSends: -1, onRecv: c.onRecv}, cfg).ReadAll()
				// A session closes the connection under a failed receive;
				// that is what unblocks the sender.
				b.Close()
				res <- readResult{data: data, err: err}
			}()
			w := NewWriter(a, cfg)
			w.Write(testPayload(20*1024, 5))
			w.Close()
			r := <-res
			if !errors.Is(r.err, c.want) || !strings.Contains(r.err.Error(), "at chunk ") {
				t.Errorf("reader err = %v, want %v naming the chunk", r.err, c.want)
			}
			if r.data != nil {
				t.Errorf("reader delivered %d bytes of a rejected stream", len(r.data))
			}
		})
	}
}

// TestParseMessageRejectsGarbage: DATA and FIN parse as themselves, and
// a cut frame, a foreign magic or a type number the stream does not speak
// does not parse.
func TestParseMessageRejectsGarbage(t *testing.T) {
	fin := marshalFin(1, 1)
	data := chunk{frame: append(chunkFrame(nil, 4), 1, 2, 3, 4)}.seal()
	for name, f := range map[string][]byte{"data": data, "fin": fin} {
		if m, err := parseMessage(f); err != nil || wire.NameOf(wire.StreamMagic, m.typ) != name {
			t.Errorf("%s frame parses as type %d, %v", name, m.typ, err)
		}
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		fin[:10],                               // truncated
		append([]byte{0, 0, 0, 0}, fin[4:]...), // bad magic
	}
	// The retired type numbers, the acknowledgement's (4) and the
	// receiver's confirmation (7) among them.
	for _, typ := range []uint32{0, 1, 2, 4, 5, 7, 8} {
		unknown := marshalFin(0, 0)
		binary.BigEndian.PutUint32(unknown[4:], typ)
		cases = append(cases, unknown)
	}
	for i, raw := range cases {
		if _, err := parseMessage(raw); !errors.Is(err, ErrProtocol) {
			t.Errorf("case %d: got %v, want ErrProtocol", i, err)
		}
	}
}

// TestFlightRecorderAndAckRTT verifies the observability hook: a clean
// transfer records nothing, and a rejected stream leaves one structured
// event naming the chunk in the flight recorder. (The name is the test's
// ID from when it also read the ack round-trip histogram, which went with
// the stream's acknowledgements.)
func TestFlightRecorderAndAckRTT(t *testing.T) {
	fr := obs.NewFlightRecorder(0)
	cfg := Config{ChunkSize: 1024, Recorder: fr}
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
		want.PutUint32(wire.StreamMagic)
		want.PutUint32(wire.Data)
		want.PutUint32(7)
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
