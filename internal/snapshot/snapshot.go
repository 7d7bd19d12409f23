// Package snapshot defines the sectioned snapshot format: the captured
// process state is not one opaque MSRM byte stream but a sequence of
// typed, independently framed sections, each carrying its own length and
// CRC. A cold migration's chunk stream carries exactly one snapshot, with
// nothing in front of it: its magic is the stream's first word.
//
// The section kinds mirror the MSR graph partition of the paper's
// Section 3: the execution state (the chain of active invocations and
// their migration sites), one section per connected component of the
// heap subgraph, one section per stack frame, and one for the globals.
// Because every section is self-describing, a receiver can verify
// integrity per section, rebuild the MSRLT section by section, and
// account bytes and time per section — none of which the monolithic
// stream allows.
//
// # Wire format
//
//	snapshot = magic "MSN3", count u32, section*count
//	section  = kind u32, id u32, length u32, crc u32, body (padded to 4)
//
// crc is the IEEE CRC-32 of the unpadded body. Sections appear in
// deterministic order — exec, heap components (by component number),
// frames (innermost first), globals — so two captures of the same
// stopped process are byte-identical.
//
// This package is pure framing: it knows nothing about what the bodies
// contain (internal/collect encodes and decodes those).
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
	"repro/internal/xdr"
)

// Magic opens every sectioned snapshot ("MSN3").
const Magic = 0x4d534e33

// Kind identifies what a section's body holds.
type Kind uint32

// Section kinds, in their deterministic stream order.
const (
	// KindExec is the execution state: the frame chain and the
	// migration site each frame is stopped at. Always the first section.
	KindExec Kind = 1
	// KindHeap is one connected component of the heap subgraph of the
	// MSR; ID is the component number in first-visit order.
	KindHeap Kind = 2
	// KindFrame is the live data of one stack frame; ID is the frame
	// depth (1 = outermost). Frames appear innermost first.
	KindFrame Kind = 3
	// KindGlobals is the global variables' live data. Always last.
	KindGlobals Kind = 4

	kindMax = uint32(KindGlobals)
)

// String names the kind for diagnostics and metrics.
func (k Kind) String() string {
	switch k {
	case KindExec:
		return "exec"
	case KindHeap:
		return "heap"
	case KindFrame:
		return "frame"
	case KindGlobals:
		return "globals"
	}
	return fmt.Sprintf("kind%d", uint32(k))
}

// Section is one framed unit of a sectioned snapshot.
type Section struct {
	Kind Kind
	ID   uint32
	Body []byte
}

// Errors reported by the decoder. All of them mean the stream cannot be
// trusted (as opposed to a stream that is well-formed but belongs to a
// different program, which the body decoders report).
var (
	// ErrBadSnapshot is a malformed snapshot prologue: wrong magic or an
	// implausible section count.
	ErrBadSnapshot = errors.New("snapshot: malformed snapshot prologue")
	// ErrBadSection is a malformed section header: unknown kind.
	ErrBadSection = errors.New("snapshot: malformed section header")
	// ErrTruncated is a section whose declared length exceeds the data.
	ErrTruncated = errors.New("snapshot: truncated section")
	// ErrChecksum is a section body failing its CRC.
	ErrChecksum = errors.New("snapshot: section checksum mismatch")
)

// maxSections bounds the declared section count: 1 exec + 1 globals +
// 2^16 frames (the vm's own frame bound) + heap components, with room.
const maxSections = 1 << 20

// Write frames a whole snapshot onto w — the prologue, then per section
// the 16-byte header, the body slice itself and its padding to four
// bytes — and returns the bytes written. It is the one framing routine:
// a body goes from the buffer it was encoded in straight to w, never
// staged through a buffer of this package's.
func Write(w io.Writer, sections []Section) (int, error) {
	var hdr [16]byte
	var pad [3]byte
	be := binary.BigEndian
	be.PutUint32(hdr[0:], Magic)
	be.PutUint32(hdr[4:], uint32(len(sections)))
	n, err := w.Write(hdr[:8])
	if err != nil {
		return n, err
	}
	for _, s := range sections {
		be.PutUint32(hdr[0:], uint32(s.Kind))
		be.PutUint32(hdr[4:], s.ID)
		be.PutUint32(hdr[8:], uint32(len(s.Body)))
		be.PutUint32(hdr[12:], crc32.ChecksumIEEE(s.Body))
		obs.CRC32Bytes.Add(int64(len(s.Body)))
		for _, p := range [...][]byte{hdr[:], s.Body, pad[:-len(s.Body)&3]} {
			m, err := w.Write(p)
			n += m
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// PrologueSize is the framed size of a snapshot's prologue, as Write
// produces it.
const PrologueSize = 8

// SectionSize is the framed size of a section whose body is bodyLen bytes
// long: its header, then the body padded to four bytes.
func SectionSize(bodyLen int) int { return 16 + (bodyLen+3)&^3 }

// Encode frames a whole snapshot into a fresh buffer of exactly its size.
func Encode(sections []Section) []byte {
	size := PrologueSize
	for _, s := range sections {
		size += SectionSize(len(s.Body))
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	Write(buf, sections) // a bytes.Buffer does not fail
	return buf.Bytes()
}

// Reader decodes a sectioned snapshot from dec section by section. dec
// may hold the whole snapshot or receive it as it arrives
// (xdr.NewFeedDecoder): either way a section's CRC is computed over its
// body's bytes once, as they pass.
type Reader struct {
	dec       *xdr.Decoder
	remaining int
	open      opened
}

// opened is the section Open handed out, until Close.
type opened struct {
	sec      Section
	sum, crc uint32
	body     *xdr.Decoder
}

// NewReader reads and validates the snapshot prologue.
func NewReader(dec *xdr.Decoder) (*Reader, error) {
	magic, err := dec.Uint32()
	if err != nil || magic != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	count, err := dec.Uint32()
	if err != nil || count == 0 || count > maxSections {
		return nil, fmt.Errorf("%w: missing or implausible section count %d", ErrBadSnapshot, count)
	}
	return &Reader{dec: dec, remaining: int(count)}, nil
}

// Remaining reports how many sections have not been read yet.
func (r *Reader) Remaining() int { return r.remaining }

// Next reads, verifies, and returns the next section. Over a decoder that
// holds the whole snapshot the returned body aliases its buffer.
func (r *Reader) Next() (Section, error) {
	sec, body, err := r.Open()
	if err != nil {
		return Section{}, err
	}
	if sec.Body, err = body.Take(body.Remaining()); err != nil {
		return Section{}, fmt.Errorf("%w: %s section %d body", ErrTruncated, sec.Kind, sec.ID)
	}
	return sec, r.Close()
}

// Open reads the next section's header and returns the section, its Body
// unset, with a decoder over the body. The body is taken from the
// snapshot's decoder only as that decoder is read, piece by piece and
// never copied whole, and each piece enters the section's CRC as it
// passes; Close, once the body has been read to its end, compares it.
func (r *Reader) Open() (Section, *xdr.Decoder, error) {
	if r.remaining == 0 {
		return Section{}, nil, fmt.Errorf("%w: no sections remain", ErrBadSnapshot)
	}
	var hdr [4]uint32
	for i := range hdr {
		v, err := r.dec.Uint32()
		if err != nil {
			return Section{}, nil, fmt.Errorf("%w: missing header", ErrTruncated)
		}
		if hdr[i] = v; i == 0 && (v == 0 || v > kindMax) {
			return Section{}, nil, fmt.Errorf("%w: unknown kind %d", ErrBadSection, v)
		}
	}
	o, left := &r.open, int(hdr[2])
	*o = opened{sec: Section{Kind: Kind(hdr[0]), ID: hdr[1]}, sum: hdr[3]}
	if left > r.dec.Remaining() {
		return Section{}, nil, fmt.Errorf("%w: %s section %d declares %d bytes, %d remain",
			ErrTruncated, o.sec.Kind, o.sec.ID, left, r.dec.Remaining())
	}
	o.body = xdr.NewFeedDecoder(left, func() ([]byte, error) {
		p, err := r.dec.TakeRun(left, 1)
		left -= len(p)
		o.crc = crc32.Update(o.crc, crc32.IEEETable, p)
		return p, err
	})
	return o.sec, o.body, nil
}

// Close ends the section Open returned: its body must have been read to
// the end and match the header's CRC. The padding after it is skipped.
func (r *Reader) Close() error {
	o := &r.open
	if n := o.body.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d bytes of %s section %d unread", ErrTruncated, n, o.sec.Kind, o.sec.ID)
	}
	obs.CRC32Bytes.Add(int64(o.body.Offset()))
	if o.crc != o.sum {
		return fmt.Errorf("%w: %s section %d", ErrChecksum, o.sec.Kind, o.sec.ID)
	}
	if _, err := r.dec.Take(-o.body.Offset() & 3); err != nil {
		return fmt.Errorf("%w: %s section %d padding", ErrTruncated, o.sec.Kind, o.sec.ID)
	}
	r.remaining--
	return nil
}

// ReadAll decodes every remaining section.
func (r *Reader) ReadAll() ([]Section, error) {
	out := make([]Section, 0, r.remaining)
	for r.remaining > 0 {
		s, err := r.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
