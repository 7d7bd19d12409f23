package xdr

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
)

// pieces returns a feed handing out p in pieces of the given size, and a
// count of the calls it answered.
func pieces(p []byte, size int, eof error) (func() ([]byte, error), *int) {
	calls := new(int)
	return func() ([]byte, error) {
		*calls++
		if len(p) == 0 {
			return nil, eof
		}
		n := min(size, len(p))
		piece := p[:n:n]
		p = p[n:]
		return piece, nil
	}, calls
}

// TestFeedDecoderMatchesOneBuffer decodes one stream of every value shape
// from a single buffer and from pieces of every size from 1 byte up: the
// values, the offsets and the remaining counts must agree at every step,
// however the values straddle the pieces.
func TestFeedDecoderMatchesOneBuffer(t *testing.T) {
	var e Encoder
	e.PutUint32(7)
	e.PutString("exec")
	e.Put4Uint32(1, 2, 3, 4)
	e.PutUint64(1 << 40)
	e.PutOpaque([]byte("a body of thirty-one bytes here"))
	e.PutFixedOpaque([]byte{9, 8, 7})
	e.Put2Uint32(5, 6)
	wire := e.Bytes()
	decode := func(d *Decoder) []any {
		var out []any
		step := func(v any, err error) {
			out = append(out, v, err, d.Offset(), d.Remaining())
		}
		step(d.Uint32())
		step(d.String())
		a, b, c, x, err := d.Uint32x4()
		step([4]uint32{a, b, c, x}, err)
		step(d.Uint64())
		o, err := d.Opaque()
		step(string(o), err)
		f, err := d.FixedOpaque(3)
		step(string(f), err)
		a, b, c, err = d.Uint32x3()
		step([3]uint32{a, b, c}, err)
		return out
	}
	want := decode(NewDecoder(wire))
	for size := 1; size <= len(wire); size++ {
		feed, _ := pieces(wire, size, io.EOF)
		if got := decode(NewFeedDecoder(len(wire), feed)); !slices.Equal(want, got) {
			t.Fatalf("pieces of %d: decoded %v, want %v", size, got, want)
		}
	}
}

// TestTakeRunDecodesInPlace takes a run of 8-byte scalars spread over
// 20-byte pieces: each part is the whole scalars its piece holds, taken
// where it lies, except a scalar that straddles two pieces, which comes
// alone and copied; together the parts are the run.
func TestTakeRunDecodesInPlace(t *testing.T) {
	run := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 12)
	feed, _ := pieces(run, 20, io.EOF)
	d := NewFeedDecoder(len(run), feed)
	var got []byte
	var sizes []int
	for left := len(run); left > 0; {
		p, err := d.TakeRun(left, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) == 0 || len(p)%8 != 0 || len(p) > left {
			t.Fatalf("part of %d bytes with %d left", len(p), left)
		}
		got, left = append(got, p...), left-len(p)
		sizes = append(sizes, len(p))
	}
	if !bytes.Equal(got, run) {
		t.Fatal("the parts are not the run")
	}
	// Pieces start at 0, 20, 40, 60 and 80: the scalars at 16 and 56
	// straddle two, every other part is the rest of its piece.
	if want := []int{16, 8, 16, 16, 8, 16, 16}; !slices.Equal(sizes, want) {
		t.Errorf("parts %v, want %v", sizes, want)
	}
	whole := NewDecoder(run)
	if p, err := whole.TakeRun(len(run), 8); err != nil || len(p) != len(run) || &p[0] != &run[0] {
		t.Errorf("a decoder over one buffer took %d bytes (%v), want the whole run in place", len(p), err)
	}
}

// TestEnsureWaitsForBytesThatArrived pins what Ensure pulls: nothing when
// the bytes are at hand or cannot exist, exactly the pieces that hold the
// bytes asked for otherwise; the feed's own failure comes back as it is,
// and the end of a stream of unknown length is a short buffer.
func TestEnsureWaitsForBytesThatArrived(t *testing.T) {
	wire := make([]byte, 100)
	feed, calls := pieces(wire, 10, io.EOF)
	d := NewFeedDecoder(len(wire), feed)
	if err := d.Ensure(101); !errors.Is(err, ErrShortBuffer) || *calls != 0 {
		t.Errorf("Ensure past the declared length: %v after %d pulls, want ErrShortBuffer and none", err, *calls)
	}
	if err := d.Ensure(35); err != nil || *calls != 4 {
		t.Errorf("Ensure(35): %v after %d pulls, want 4", err, *calls)
	}
	if _, err := d.Take(30); err != nil || d.Offset() != 30 || d.Remaining() != 70 {
		t.Errorf("take 30: %v, offset %d, remaining %d", err, d.Offset(), d.Remaining())
	}
	if err := d.Ensure(10); err != nil || *calls != 4 {
		t.Errorf("Ensure(10) with 10 held: %v after %d pulls, want no new pull", err, *calls)
	}

	broken := errors.New("link down")
	feed, _ = pieces(make([]byte, 8), 8, broken)
	d = NewFeedDecoder(-1, feed)
	if _, err := d.Uint64(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uint32(); !errors.Is(err, broken) {
		t.Errorf("take past a failed feed: %v, want the feed's error", err)
	}
	feed, _ = pieces(make([]byte, 6), 4, io.EOF)
	d = NewFeedDecoder(-1, feed)
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Uint32(); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("take past the end of a stream of unknown length: %v, want ErrShortBuffer", err)
	}
	if err := d.Ensure(2); err != nil {
		t.Errorf("the two bytes that did arrive: %v", err)
	}
}
