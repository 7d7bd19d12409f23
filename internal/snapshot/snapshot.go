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
// Because every section is self-describing, a receiver can decode each
// body as it arrives and check it against the CRC that trails it,
// rebuild the MSRLT section by section, and account bytes and time per
// section — none of which one undivided stream allows.
//
// # Wire format
//
//	snapshot = magic "MSN4", count u32, section*count
//	section  = kind u32, id u32, length u32, body (padded to 4), crc u32
//
// crc is the IEEE CRC-32 of the unpadded body. It trails the body, so a
// writer that knows each body's length before the body (Writer) streams
// the body as it is encoded and never holds it whole. Sections appear in
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

// Magic opens every sectioned snapshot ("MSN4").
const Magic = 0x4d534e34

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

// Writer frames a snapshot onto w section by section, as the bodies are
// produced: Begin declares a section's size, Write hands its body through
// in pieces — each piece the caller's own slice, never staged through a
// buffer of this package's — and End closes it with its padding and CRC,
// which the pieces entered as they passed. A body that overruns or falls
// short of its declared size fails the section. The prologue goes out with
// the first section.
type Writer struct {
	w           io.Writer
	n, left     int    // bytes written; of the open section's body, bytes to come
	count, size uint32 // the snapshot's sections; the open section's body size
	crc         uint32 // of the open section's body so far
	buf         [20]byte
}

// ErrSize is a section body that does not match the size Begin declared.
var ErrSize = errors.New("snapshot: section body does not match its declared size")

// NewWriter returns a Writer of a snapshot of count sections onto w.
func NewWriter(w io.Writer, count int) *Writer { return &Writer{w: w, count: uint32(count)} }

// Len returns the bytes written so far.
func (sw *Writer) Len() int { return sw.n }

func (sw *Writer) put(p []byte) (int, error) {
	m, err := sw.w.Write(p)
	sw.n += m
	return m, err
}

// Begin opens a section of kind and id whose body is size bytes long.
func (sw *Writer) Begin(kind Kind, id uint32, size int) error {
	be, h := binary.BigEndian, sw.buf[:0]
	if sw.n == 0 {
		h = be.AppendUint32(be.AppendUint32(h, Magic), sw.count)
	}
	sw.left, sw.size, sw.crc = size, uint32(size), 0
	_, err := sw.put(be.AppendUint32(be.AppendUint32(be.AppendUint32(h, uint32(kind)), id), sw.size))
	return err
}

// Write hands the next piece of the open section's body through to w.
func (sw *Writer) Write(p []byte) (int, error) {
	if sw.left -= len(p); sw.left < 0 {
		return 0, fmt.Errorf("%w: %d bytes past %d", ErrSize, -sw.left, sw.size)
	}
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	return sw.put(p)
}

// End closes the open section: its padding to four bytes and its CRC.
func (sw *Writer) End() error {
	if sw.left != 0 {
		return fmt.Errorf("%w: %d bytes short of %d", ErrSize, sw.left, sw.size)
	}
	obs.CRC32Bytes.Add(int64(sw.size))
	pad := append(sw.buf[:0], 0, 0, 0)[:-sw.size&3]
	_, err := sw.put(binary.BigEndian.AppendUint32(pad, sw.crc))
	return err
}

// Section frames one whole section.
func (sw *Writer) Section(kind Kind, id uint32, body []byte) error {
	err := sw.Begin(kind, id, len(body))
	if err == nil {
		_, err = sw.Write(body)
	}
	if err == nil {
		err = sw.End()
	}
	return err
}

// Write frames a whole snapshot onto w through a Writer and returns the
// bytes written.
func Write(w io.Writer, sections []Section) (int, error) {
	sw := NewWriter(w, len(sections))
	for _, s := range sections {
		if err := sw.Section(s.Kind, s.ID, s.Body); err != nil {
			return sw.n, err
		}
	}
	return sw.n, nil
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
// body's bytes once, as they pass, and compared with the trailer after
// them.
type Reader struct {
	dec       *xdr.Decoder
	remaining int
	open      opened
}

// opened is the section Open handed out, until Close.
type opened struct {
	sec  Section
	crc  uint32
	body *xdr.Decoder
	fed  error // the snapshot decoder's failure while the body was read
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
// passes; Close compares it.
func (r *Reader) Open() (Section, *xdr.Decoder, error) {
	if r.remaining == 0 {
		return Section{}, nil, fmt.Errorf("%w: no sections remain", ErrBadSnapshot)
	}
	var hdr [3]uint32
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
	*o = opened{sec: Section{Kind: Kind(hdr[0]), ID: hdr[1]}}
	if framed := left + -left&3 + 4; framed > r.dec.Remaining() {
		return Section{}, nil, fmt.Errorf("%w: %s section %d frames %d bytes, %d remain",
			ErrTruncated, o.sec.Kind, o.sec.ID, framed, r.dec.Remaining())
	}
	o.body = xdr.NewFeedDecoder(left, func() ([]byte, error) {
		p, err := r.dec.TakeRun(left, 1)
		if err != nil {
			o.fed = err
		}
		left -= len(p)
		o.crc = crc32.Update(o.crc, crc32.IEEETable, p)
		return p, err
	})
	return o.sec, o.body, nil
}

// Close ends the section Open returned: what of its body was not read is
// read and dropped, the padding after it skipped, and the CRC trailer
// compared. A body whose reader gave up on it early is still checked, so a
// damaged section reports ErrChecksum whatever its reader made of the
// bytes. Close fails with the snapshot decoder's own error when that
// failed under the body.
func (r *Reader) Close() error {
	o := &r.open
	for o.fed == nil && o.body.Remaining() > 0 {
		o.body.TakeRun(o.body.Remaining(), 1) // only the snapshot's decoder fails it
	}
	if errors.Is(o.fed, xdr.ErrShortBuffer) {
		return fmt.Errorf("%w: %s section %d body", ErrTruncated, o.sec.Kind, o.sec.ID)
	} else if o.fed != nil {
		return o.fed
	}
	obs.CRC32Bytes.Add(int64(o.body.Offset()))
	t, err := r.dec.Take(-o.body.Offset()&3 + 4) // the padding, then the CRC
	if err != nil {
		return fmt.Errorf("%w: %s section %d CRC", ErrTruncated, o.sec.Kind, o.sec.ID)
	}
	if o.crc != binary.BigEndian.Uint32(t[len(t)-4:]) {
		return fmt.Errorf("%w: %s section %d", ErrChecksum, o.sec.Kind, o.sec.ID)
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
