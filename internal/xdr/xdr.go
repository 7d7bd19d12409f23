// Package xdr implements the subset of Sun's External Data Representation
// (RFC 1014 / RFC 1832) used as the machine-independent wire format for
// primitive values.
//
// The paper's layer-2 routines translate primitive data values of a specific
// architecture into a machine-independent format; this package is that
// layer, written from scratch on the standard library. All quantities are
// encoded big-endian and padded to a multiple of four bytes, exactly as XDR
// specifies, so a stream produced on a little-endian source decodes
// identically on a big-endian destination.
package xdr

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// be is the byte order of every XDR quantity.
var be = binary.BigEndian

// ErrShortBuffer is returned when a decode runs past the end of the stream.
var ErrShortBuffer = errors.New("xdr: unexpected end of stream")

// ErrLength is returned when a decoded length prefix is implausible
// (negative or beyond the remaining stream).
var ErrLength = errors.New("xdr: invalid length")

// Encoder appends XDR-encoded values to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
	// calls counts Put/Grow operations, the encoder's observability
	// counter. A plain int incremented on the grow path: the owner of the
	// encoder flushes it to a metrics registry in bulk, so the hot path
	// never touches an atomic.
	calls int
}

// NewEncoder returns an encoder whose buffer has the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer and is valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded stream, retaining the buffer.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.calls = 0
}

// Calls returns the number of encode operations (Put/Grow calls) performed
// since creation or Reset — the call counter the obs layer aggregates.
func (e *Encoder) Calls() int { return e.calls }

func (e *Encoder) grow(n int) []byte {
	e.calls++
	l := len(e.buf)
	if l+n <= cap(e.buf) {
		e.buf = e.buf[:l+n]
	} else {
		nb := make([]byte, l+n, (l+n)*2)
		copy(nb, e.buf)
		e.buf = nb
	}
	return e.buf[l : l+n]
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) { be.PutUint32(e.grow(4), v) }

// Put2Uint32 encodes two 32-bit unsigned integers in one slab write —
// one grow instead of two, for fixed small records on the hot path.
func (e *Encoder) Put2Uint32(a, b uint32) {
	s := e.grow(8)
	be.PutUint32(s, a)
	be.PutUint32(s[4:], b)
}

// Put4Uint32 encodes four 32-bit unsigned integers in one slab write.
// This is the shape of a pointer reference (segment, major, minor,
// ordinal) and of a section-directory entry, the two records the
// collector emits thousands of per capture; batching them collapses four
// grow calls into one.
func (e *Encoder) Put4Uint32(a, b, c, d uint32) {
	s := e.grow(16)
	be.PutUint32(s, a)
	be.PutUint32(s[4:], b)
	be.PutUint32(s[8:], c)
	be.PutUint32(s[12:], d)
}

// PutUint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) PutUint64(v uint64) { be.PutUint64(e.grow(8), v) }

// PutFixedOpaque encodes fixed-length opaque data: the bytes followed by
// zero padding to a four-byte boundary. The decoder must know the length.
func (e *Encoder) PutFixedOpaque(p []byte) {
	b := e.grow((len(p) + 3) &^ 3)
	for i := copy(b, p); i < len(b); i++ {
		b[i] = 0
	}
}

// PutOpaque encodes variable-length opaque data: a length prefix followed
// by the bytes and padding.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.PutFixedOpaque(p)
}

// PutString encodes a string as XDR variable-length opaque data.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	n := (len(s) + 3) &^ 3
	b := e.grow(n)
	copy(b, s)
	for i := len(s); i < n; i++ {
		b[i] = 0
	}
}

// Grow exposes raw append space of exactly n bytes for callers that encode
// runs of scalars directly (the type-specific saving functions). The
// caller must fill all n bytes and keep the stream four-byte aligned.
func (e *Encoder) Grow(n int) []byte { return e.grow(n) }

// Decoder reads XDR-encoded values from a byte slice, or from a stream
// whose bytes arrive in pieces (NewFeedDecoder).
type Decoder struct {
	buf []byte // the piece at hand
	off int
	// calls counts decode operations (take calls); like Encoder.calls it
	// is a plain int the owner flushes to a registry in bulk.
	calls int

	// A fed decoder pulls its next pieces from feed and holds the ones
	// pulled ahead of buf, uncopied, in ahead (held bytes); rest is what
	// the feed has still to hand out, done what was consumed before buf.
	feed       func() ([]byte, error)
	ahead      [][]byte
	held, rest int
	done       int
}

// NewDecoder returns a decoder reading from p. The decoder does not copy p.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// NewFeedDecoder returns a decoder over an n-byte stream that arrives in
// pieces, each the next call of feed, which never hands out more than the
// stream has left. A value is decoded where its piece lies; only one that
// straddles two pieces is copied. A negative n is a stream of unknown
// length, which ends where feed returns io.EOF. Any other feed error is
// returned as it is by the take that needed the piece.
func NewFeedDecoder(n int, feed func() ([]byte, error)) *Decoder {
	if n < 0 {
		n = math.MaxInt >> 1
	}
	return &Decoder{feed: feed, rest: n}
}

// Offset returns the number of bytes consumed so far.
func (d *Decoder) Offset() int { return d.done + d.off }

// Remaining returns the number of unread bytes, arrived or not.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off + d.held + d.rest }

// Calls returns the number of decode operations performed so far — the
// call counter the obs layer aggregates.
func (d *Decoder) Calls() int { return d.calls }

// Ensure makes the next n bytes of the stream present — pulling pieces
// from the feed and holding them until they are — so that a caller can
// bound what it allocates by bytes that arrived rather than by a length
// the stream declares. It fails at once when fewer than n remain.
func (d *Decoder) Ensure(n int) error {
	if n > d.Remaining() {
		return ErrShortBuffer
	}
	for len(d.buf)-d.off+d.held < n {
		p, err := d.feed()
		if err == io.EOF {
			return ErrShortBuffer
		} else if err != nil {
			return err
		}
		if len(p) > 0 {
			d.ahead, d.held, d.rest = append(d.ahead, p), d.held+len(p), d.rest-len(p)
		}
	}
	return nil
}

// fill makes the piece at hand non-empty, moving past spent ones.
func (d *Decoder) fill() error {
	if err := d.Ensure(1); err != nil {
		return err
	}
	for d.off == len(d.buf) {
		d.done, d.buf, d.off = d.done+len(d.buf), d.ahead[0], 0
		d.ahead[0], d.ahead, d.held = nil, d.ahead[1:], d.held-len(d.buf)
	}
	return nil
}

// take consumes n bytes from the stream.
func (d *Decoder) take(n int) ([]byte, error) {
	d.calls++
	if n >= 0 && d.off+n <= len(d.buf) {
		b := d.buf[d.off : d.off+n]
		d.off += n
		return b, nil
	}
	return d.span(n)
}

// span takes n bytes that run past the piece at hand: from the next piece
// when they start there, else copied together from the pieces they cross.
func (d *Decoder) span(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrShortBuffer
	}
	if err := d.Ensure(n); err != nil {
		return nil, err
	}
	if d.off == len(d.buf) {
		d.fill()
		if n <= len(d.buf) {
			d.off = n
			return d.buf[:n], nil
		}
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		d.fill()
		k := min(n-len(out), len(d.buf)-d.off)
		out = append(out, d.buf[d.off:d.off+k]...)
		d.off += k
	}
	return out, nil
}

// TakeRun takes the next part of an n-byte run of unit-byte scalars: as
// many whole scalars as the piece at hand holds (one, copied, when it
// straddles two pieces), so that a run spanning pieces is decoded part by
// part in place. A decoder over one buffer takes the whole run at once.
func (d *Decoder) TakeRun(n, unit int) ([]byte, error) {
	if d.off == len(d.buf) && n > 0 {
		if err := d.fill(); err != nil {
			return nil, err
		}
	}
	if k := min(n, len(d.buf)-d.off); k >= unit {
		return d.take(k - k%unit)
	}
	return d.take(min(n, unit))
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return be.Uint32(b), nil
}

// Uint32x3 decodes three 32-bit unsigned integers in one take — the tail
// of a non-null pointer reference after its segment word.
func (d *Decoder) Uint32x3() (a, b, c uint32, err error) {
	s, err := d.take(12)
	if err != nil {
		return 0, 0, 0, err
	}
	return be.Uint32(s), be.Uint32(s[4:]), be.Uint32(s[8:]), nil
}

// Uint32x4 decodes four 32-bit unsigned integers in one take — the shape
// of a section-directory entry.
func (d *Decoder) Uint32x4() (a, b, c, e uint32, err error) {
	s, err := d.take(16)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return be.Uint32(s), be.Uint32(s[4:]), be.Uint32(s[8:]), be.Uint32(s[12:]), nil
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return be.Uint64(b), nil
}

// FixedOpaque decodes n bytes of fixed-length opaque data, consuming the
// padding. The returned slice aliases the stream.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	padded := (n + 3) &^ 3
	b, err := d.take(padded)
	if err != nil {
		return nil, err
	}
	return b[:n], nil
}

// Opaque decodes variable-length opaque data.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, ErrLength
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// Take exposes n raw stream bytes for callers that decode runs of scalars
// directly (the type-specific restoring functions).
func (d *Decoder) Take(n int) ([]byte, error) { return d.take(n) }
