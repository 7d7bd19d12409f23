package snapshot

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/xdr"
)

func sample() []Section {
	return []Section{
		{Kind: KindExec, ID: 0, Body: []byte{1, 2, 3, 4, 5}},
		{Kind: KindHeap, ID: 0, Body: []byte("heap component zero")},
		{Kind: KindHeap, ID: 1, Body: nil},
		{Kind: KindFrame, ID: 2, Body: []byte{0xff}},
		{Kind: KindGlobals, ID: 0, Body: []byte("globals")},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	buf := Encode(in)
	rd, err := NewReader(xdr.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d sections, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Kind != in[i].Kind || out[i].ID != in[i].ID {
			t.Errorf("section %d header = (%v,%d), want (%v,%d)",
				i, out[i].Kind, out[i].ID, in[i].Kind, in[i].ID)
		}
		if string(out[i].Body) != string(in[i].Body) {
			t.Errorf("section %d body = %q, want %q", i, out[i].Body, in[i].Body)
		}
	}
	if rd.Remaining() != 0 {
		t.Errorf("Remaining = %d after ReadAll", rd.Remaining())
	}
}

// sliceWriter keeps what it is handed — the bytes, and the slices
// themselves — and fails once failAt bytes have been accepted (negative
// never fails).
type sliceWriter struct {
	bytes.Buffer
	writes [][]byte
	n      int
	failAt int
}

var errWriter = errors.New("test: writer failed")

func (w *sliceWriter) Write(p []byte) (int, error) {
	if w.failAt >= 0 && w.n+len(p) > w.failAt {
		return 0, errWriter
	}
	w.writes = append(w.writes, p)
	w.n += len(p)
	return w.Buffer.Write(p)
}

// TestWriteHandsBodiesThrough pins the framing routine: what it writes is
// what Encode returns, the count is the bytes written, each body reaches
// the writer as the caller's own slice (no staging copy), and a writer's
// error stops the framing with the count so far.
func TestWriteHandsBodiesThrough(t *testing.T) {
	in := sample()
	w := &sliceWriter{failAt: -1}
	n, err := Write(w, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := Encode(in); n != len(want) || !bytes.Equal(w.Bytes(), want) {
		t.Errorf("Write produced %d bytes that differ from Encode's %d", n, len(want))
	}
	for _, s := range in {
		if len(s.Body) == 0 {
			continue
		}
		through := false
		for _, p := range w.writes {
			through = through || len(p) == len(s.Body) && &p[0] == &s.Body[0]
		}
		if !through {
			t.Errorf("%s section %d: body was copied before it reached the writer", s.Kind, s.ID)
		}
	}
	for failAt := 0; failAt < n; failAt += 7 {
		w := &sliceWriter{failAt: failAt}
		m, err := Write(w, in)
		if !errors.Is(err, errWriter) || m != w.n {
			t.Errorf("writer failing at %d: Write = %d, %v; want %d and the writer's error", failAt, m, err, w.n)
		}
	}
}

func TestBadPrologue(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad magic", Encode(sample())[1:]},
		{"zero count", func() []byte {
			enc := xdr.NewEncoder(8)
			enc.Put2Uint32(Magic, 0)
			return enc.Bytes()
		}()},
		{"implausible count", func() []byte {
			enc := xdr.NewEncoder(8)
			enc.Put2Uint32(Magic, maxSections+1)
			return enc.Bytes()
		}()},
	}
	for _, c := range cases {
		if _, err := NewReader(xdr.NewDecoder(c.buf)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", c.name, err)
		}
	}
}

func TestCorruptBody(t *testing.T) {
	buf := Encode(sample())
	// Flip one byte inside the first section's body (prologue 8 + header
	// 16 bytes in).
	buf[8+16] ^= 0x40
	rd, err := NewReader(xdr.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestTruncated(t *testing.T) {
	buf := Encode(sample())
	for _, cut := range []int{9, 20, len(buf) / 2, len(buf) - 1} {
		rd, err := NewReader(xdr.NewDecoder(buf[:cut]))
		if err != nil {
			t.Fatalf("cut %d: prologue: %v", cut, err)
		}
		var last error
		for rd.Remaining() > 0 {
			if _, last = rd.Next(); last != nil {
				break
			}
		}
		if !errors.Is(last, ErrTruncated) && !errors.Is(last, ErrChecksum) {
			t.Errorf("cut %d: err = %v, want ErrTruncated or ErrChecksum", cut, last)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	buf := Encode([]Section{{Kind: Kind(9), ID: 0, Body: []byte("x")}})
	rd, err := NewReader(xdr.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrBadSection) {
		t.Errorf("err = %v, want ErrBadSection", err)
	}
}

func TestLengthPastEnd(t *testing.T) {
	enc := xdr.NewEncoder(64)
	enc.Put2Uint32(Magic, 1)
	enc.PutUint32(uint32(KindHeap))
	enc.PutUint32(0)
	enc.PutUint32(1 << 30) // declared length far past the buffer
	enc.PutUint32(0)
	rd, err := NewReader(xdr.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestNextPastCount(t *testing.T) {
	buf := Encode(sample())
	rd, err := NewReader(xdr.NewDecoder(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("Next past count: err = %v, want ErrBadSnapshot", err)
	}
}

// TestOpenReadsBodiesAsTheyArrive reads a snapshot that arrives in pieces
// of every size from 1 byte up through Open and Close: each body comes
// out of its section decoder equal to the one encoded, the CRC is checked
// over the bytes as they passed, and a byte flipped in any body is caught
// at that section's Close, naming it.
func TestOpenReadsBodiesAsTheyArrive(t *testing.T) {
	in := sample()
	wire := Encode(in)
	feed := func(p []byte, size int) func() ([]byte, error) {
		return func() ([]byte, error) {
			if len(p) == 0 {
				return nil, io.EOF
			}
			n := min(size, len(p))
			piece := p[:n:n]
			p = p[n:]
			return piece, nil
		}
	}
	for size := 1; size <= len(wire); size++ {
		rd, err := NewReader(xdr.NewFeedDecoder(-1, feed(wire, size)))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range in {
			sec, body, err := rd.Open()
			if err != nil || sec.Kind != want.Kind || sec.ID != want.ID {
				t.Fatalf("pieces of %d, section %d: header %v %d, %v", size, i, sec.Kind, sec.ID, err)
			}
			got, err := body.Take(body.Remaining())
			if err != nil || !bytes.Equal(got, want.Body) {
				t.Fatalf("pieces of %d, section %d: body %q, %v; want %q", size, i, got, err, want.Body)
			}
			if err := rd.Close(); err != nil {
				t.Fatalf("pieces of %d, section %d: %v", size, i, err)
			}
		}
	}
	bad := append([]byte(nil), wire...)
	bad[len(bad)-5] ^= 0x40 // inside the globals body
	rd, err := NewReader(xdr.NewFeedDecoder(-1, feed(bad, 3)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := rd.ReadAll()
	if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "globals section 0") || out != nil {
		t.Errorf("a flipped globals byte: %v, want ErrChecksum naming the globals section", err)
	}
}
