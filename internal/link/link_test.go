package link

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msgs := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, m := range msgs {
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestPipeCopiesPayload(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	buf := []byte("mutable")
	a.Send(buf)
	buf[0] = 'X'
	got, _ := b.Recv()
	if string(got) != "mutable" {
		t.Errorf("payload aliased sender buffer: %q", got)
	}
}

func TestPipeClose(t *testing.T) {
	a, b := Pipe()
	a.Send([]byte("queued"))
	a.Close()
	// Queued message still delivered after close.
	if got, err := b.Recv(); err != nil || string(got) != "queued" {
		t.Errorf("queued recv: %q, %v", got, err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Errorf("recv after close: %v", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Errorf("send after close: %v", err)
	}
}

// TestPipeConcurrentClose closes both ends of a pipe at once, as
// session.Transfer's failure path does from its two goroutines: the shared
// close must happen exactly once, never panic, and leave both ends closed.
func TestPipeConcurrentClose(t *testing.T) {
	for i := 0; i < 1000; i++ {
		a, b := Pipe()
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		for _, end := range []Transport{a, b, a, b} {
			ready.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				<-start
				end.Close()
			}()
		}
		ready.Wait()
		close(start)
		wg.Wait()
		if err := a.Send(nil); err != ErrClosed {
			t.Fatalf("iteration %d: send after both closed: %v", i, err)
		}
		if _, err := b.Recv(); err != ErrClosed {
			t.Fatalf("iteration %d: recv after both closed: %v", i, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xab}, 10000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame mismatch: %d bytes vs %d", len(got), len(want))
		}
	}
}

// TestRecycledFramesAreRefilled hands a chunk-sized frame back and reads
// more frames: a recycled frame is filled again whole, never showing what
// it held, and one too small for the next frame is not used for it.
func TestRecycledFramesAreRefilled(t *testing.T) {
	var buf bytes.Buffer
	big, small := bytes.Repeat([]byte{1}, 40<<10), bytes.Repeat([]byte{2}, 36<<10)
	for _, p := range [][]byte{big, small, big} {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	Recycle(first)
	for _, want := range [][]byte{small, big} {
		got, err := ReadFrame(&buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame after recycling: %d bytes, err %v; want %d bytes of %d", len(got), err, len(want), want[0])
		}
		Recycle(got)
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("important state"))
	raw := buf.Bytes()
	raw[10] ^= 0x01 // flip a payload bit
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted frame: got %v, want ErrChecksum", err)
	}
}

func TestFrameCorruptionKeepsStreamAligned(t *testing.T) {
	// A checksum failure consumes the whole frame, so the next frame on the
	// same byte stream still decodes — the property the stream layer's
	// re-request protocol depends on.
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("chunk zero"))
	WriteFrame(&buf, []byte("chunk one"))
	raw := buf.Bytes()
	raw[12] ^= 0x80 // corrupt first frame's payload
	r := bytes.NewReader(raw)
	if _, err := ReadFrame(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("first frame: got %v, want ErrChecksum", err)
	}
	got, err := ReadFrame(r)
	if err != nil || string(got) != "chunk one" {
		t.Errorf("second frame after corruption: %q, %v", got, err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, bytes.Repeat([]byte{0x5a}, 256))
	cases := []struct {
		name string
		n    int
	}{
		{"mid-header", 5},
		{"header only", 8},
		{"mid-payload", 100},
	}
	for _, c := range cases {
		raw := buf.Bytes()[:c.n]
		_, err := ReadFrame(bytes.NewReader(raw))
		if err == nil {
			t.Errorf("%s: truncated frame accepted", c.name)
		}
		if errors.Is(err, ErrChecksum) {
			t.Errorf("%s: truncation misreported as checksum mismatch", c.name)
		}
	}
}

func TestFrameBogusLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Error("oversized frame length accepted")
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		tr := NewConn(c)
		defer tr.Close()
		msg, err := tr.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- tr.Send(append([]byte("echo:"), msg...))
	}()

	tr, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send([]byte("state")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:state" {
		t.Errorf("echo = %q", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestModelTxTime(t *testing.T) {
	// 8 MB over 100 Mb/s at 80% efficiency: 8e6*8/80e6 = 0.8 s + latency.
	d := Ethernet100.TxTime(8 << 20)
	if d < 750*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("8MB over 100Mb/s = %v, expected ≈0.84s", d)
	}
	// The 10 Mb/s link is about 10x slower.
	d10 := Ethernet10.TxTime(8 << 20)
	if ratio := d10.Seconds() / d.Seconds(); ratio < 7 || ratio > 14 {
		t.Errorf("10Mb/s / 100Mb/s time ratio = %.1f", ratio)
	}
	// Latency floor for empty payloads.
	if Ethernet100.TxTime(0) < Ethernet100.Latency {
		t.Error("latency not applied")
	}
	// Monotone in size.
	if Ethernet100.TxTime(1000) >= Ethernet100.TxTime(100000) {
		t.Error("TxTime not increasing with size")
	}
}

func TestModelDegenerate(t *testing.T) {
	m := Model{Latency: time.Millisecond}
	if m.TxTime(100) != time.Millisecond {
		t.Error("zero-bandwidth model should return latency")
	}
	m2 := Model{BitsPerSecond: 1e6, Efficiency: 5} // out-of-range efficiency
	if m2.TxTime(1000) <= 0 {
		t.Error("bad efficiency not clamped")
	}
}

func TestLoopbackPair(t *testing.T) {
	srv, cli, cleanup, err := LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	done := make(chan []byte, 1)
	go func() {
		msg, err := srv.Recv()
		if err != nil {
			done <- nil
			return
		}
		done <- msg
	}()
	if err := cli.Send([]byte("over loopback")); err != nil {
		t.Fatal(err)
	}
	if got := <-done; string(got) != "over loopback" {
		t.Errorf("got %q", got)
	}
}

func TestLoopbackPairCleanupIdempotent(t *testing.T) {
	srv, cli, cleanup, err := LoopbackPair()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Send([]byte("before cleanup")); err != nil {
		t.Fatal(err)
	}
	if msg, err := srv.Recv(); err != nil || string(msg) != "before cleanup" {
		t.Fatalf("recv before cleanup: %q, %v", msg, err)
	}
	cleanup()
	cleanup() // second call must be a no-op, not a panic
	if err := cli.Send([]byte("after")); err == nil {
		t.Error("send on cleaned-up transport succeeded")
	}
}

func TestListenerRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type acceptRes struct {
		c   *Conn
		err error
	}
	accepted := make(chan acceptRes, 1)
	go func() {
		c, err := l.Accept()
		accepted <- acceptRes{c, err}
	}()
	cli, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ar := <-accepted
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	defer ar.c.Close()
	if err := cli.Send([]byte("through the listener")); err != nil {
		t.Fatal(err)
	}
	got, err := ar.c.Recv()
	if err != nil || string(got) != "through the listener" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// A closed listener fails the next Accept.
	l.Close()
	if _, err := l.Accept(); err == nil {
		t.Error("accept on closed listener succeeded")
	}
}

func TestConnDeadline(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan *Conn, 1)
	go func() {
		c, aerr := l.Accept()
		if aerr != nil {
			return
		}
		accepted <- c
	}()
	cli, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()
	// A server-side deadline fails a Recv whose peer never sends: the
	// per-session timeout of the migration daemon.
	if err := srv.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recv(); err == nil {
		t.Error("recv with expired deadline succeeded")
	}
	// Deadlines on a deadline-less ReadWriteCloser are a no-op.
	if err := NewConn(nopRWC{new(bytes.Buffer)}).SetDeadline(time.Now()); err != nil {
		t.Errorf("deadline on buffer-backed conn: %v", err)
	}
}

// nopRWC is a ReadWriteCloser with no deadline support.
type nopRWC struct{ *bytes.Buffer }

func (nopRWC) Close() error { return nil }
