// Package store is the content-addressed checkpoint repository: section
// bodies of sectioned snapshots are stored once under their SHA-256,
// and a checkpoint is a small manifest — program digest, one (kind, id,
// length, hash) entry per section, and the hash of the parent manifest —
// chaining into a point-in-time history of a running process.
//
// The design follows the content-naming idea of Process Migration over
// CCNx (PAPERS.md): the sectioned format already gives every heap
// component, frame, and globals block a stable identity and CRC, which
// makes the section body the natural unit of content addressing. A node
// checkpointing many near-identical sessions persists each distinct body
// exactly once; a warm migration sends only the sections the
// destination's store lacks (internal/session's ANNOUNCE/WANT round).
//
// # Layout
//
//	<dir>/format  "migstore/2\n"
//	<dir>/pack    append-only records: kind, hash, length, body, CRC-32
//
// A record is a section body filed under its SHA-256, an encoded
// manifest filed under its SHA-256, or a ref: a chain's name filed under
// the manifest at its head, the last record of a name winning. A
// checkpoint appends its missing bodies, then its manifest, then its
// ref, and syncs the pack once before the ref moves, so a crash leaves
// no ref naming a record the pack lacks. Open scans the pack once into
// an in-memory index, cuts off a torn tail, and files a damaged record
// with valid records after it as damaged, so reading it is an
// ErrCorrupt. GetBlob and GetManifest re-verify the content hash on
// every read, so damage after Open surfaces as ErrCorrupt too, never as
// a bad restore. One Store holds the pack at a time (an exclusive flock).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// Errors reported by the store. ErrCorrupt and ErrBadManifest mean an
// object cannot be trusted (the session layer classifies them with the
// corrupt-stream failures); ErrNotFound covers missing blobs, missing
// manifests, and dangling parent links.
var (
	// ErrBadManifest is a manifest that does not decode: wrong magic or
	// version, implausible entry count, unknown section kind.
	ErrBadManifest = errors.New("store: malformed manifest")
	// ErrCorrupt is a stored object whose content does not match its
	// address: a pack record that fails its CRC, or a body hashing to a
	// different SHA-256 than its name.
	ErrCorrupt = errors.New("store: corrupt object")
	// ErrNotFound is a blob, manifest, or ref the store does not hold —
	// including a manifest whose parent link dangles.
	ErrNotFound = errors.New("store: object not found")
)

// HashSize is the content-address width (SHA-256).
const HashSize = sha256.Size

// Hash is a content address: the SHA-256 of a section body or of an
// encoded manifest. The zero Hash means "no object" (a chain root's
// parent).
type Hash [HashSize]byte

// HashBytes computes the content address of b. It is the one place the
// program computes a SHA-256, so obs.SHA256Bytes counts every pass here.
func HashBytes(b []byte) Hash {
	obs.SHA256Bytes.Add(int64(len(b)))
	return sha256.Sum256(b)
}

// Key is HashBytes as the key function a capture names its bodies by
// (vm.Process.Round).
func Key(b []byte) [HashSize]byte { return HashBytes(b) }

// IsZero reports whether h is the null address.
func (h Hash) IsZero() bool { return h == Hash{} }

// String renders the full hex address.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short renders the abbreviated address used in logs and tables.
func (h Hash) Short() string { return hex.EncodeToString(h[:6]) }

// ParseHash decodes a full hex content address.
func ParseHash(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != HashSize {
		return Hash{}, fmt.Errorf("%w: %q is not a %d-byte hex hash", ErrNotFound, s, HashSize)
	}
	copy(h[:], b)
	return h, nil
}

// manifestMagic opens every encoded manifest ("MCM1").
const manifestMagic = 0x4d434d31

// manifestVersion is the manifest wire version this package encodes.
const manifestVersion = 2

// maxEntries bounds the declared entry count, mirroring the snapshot
// layer's own section bound.
const maxEntries = 1 << 20

// Entry addresses one section of a checkpointed snapshot: the section
// header fields plus the content hash of the body.
type Entry struct {
	Kind   snapshot.Kind
	ID     uint32
	Length uint32
	Hash   Hash
}

// Manifest is one checkpoint: the identity of the program and machine the
// snapshot was captured from, the chain position, and one entry per
// section in the snapshot's deterministic order. Materializing the entries
// in order reproduces the original sectioned snapshot byte for byte.
type Manifest struct {
	// ProgramDigest identifies the program build (core.Engine.Digest) the
	// snapshot belongs to; a restore verifies it before rebuilding.
	ProgramDigest uint32
	// Machine is the name of the machine the snapshot was captured on.
	Machine string
	// Seq numbers the checkpoint within its chain (1 = chain root).
	Seq uint64
	// Parent is the content address of the previous manifest in the
	// chain; zero for the root.
	Parent Hash
	// Entries lists every section in snapshot order.
	Entries []Entry
}

// SnapshotBytes computes the size of the sectioned snapshot the manifest
// describes (prologue plus each section's header, CRC, and padded body).
func (m *Manifest) SnapshotBytes() int {
	n := snapshot.PrologueSize
	for _, e := range m.Entries {
		n += snapshot.SectionSize(int(e.Length))
	}
	return n
}

// Encode renders the manifest in its canonical wire form. The manifest's
// content address is the SHA-256 of these bytes.
func (m *Manifest) Encode() []byte {
	enc := xdr.NewEncoder(64 + len(m.Machine) + len(m.Entries)*(12+HashSize))
	enc.PutUint32(manifestMagic)
	enc.PutUint32(manifestVersion)
	enc.PutUint32(m.ProgramDigest)
	enc.PutString(m.Machine)
	enc.PutUint64(m.Seq)
	enc.PutFixedOpaque(m.Parent[:])
	enc.PutUint32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		enc.PutUint32(uint32(e.Kind))
		enc.PutUint32(e.ID)
		enc.PutUint32(e.Length)
		enc.PutFixedOpaque(e.Hash[:])
	}
	return enc.Bytes()
}

// Hash returns the manifest's content address.
func (m *Manifest) Hash() Hash { return HashBytes(m.Encode()) }

// DecodeManifest parses and validates an encoded manifest. Any malformed
// input — wrong magic, future version, implausible counts, unknown section
// kinds, trailing bytes — is an ErrBadManifest, never a panic.
func DecodeManifest(raw []byte) (*Manifest, error) {
	d := xdr.NewDecoder(raw)
	magic, err := d.Uint32()
	if err != nil || magic != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	ver, err := d.Uint32()
	if err != nil || ver != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, ver)
	}
	var m Manifest
	if m.ProgramDigest, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadManifest)
	}
	if m.Machine, err = d.String(); err != nil {
		return nil, fmt.Errorf("%w: truncated machine name", ErrBadManifest)
	}
	if m.Seq, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("%w: truncated sequence", ErrBadManifest)
	}
	parent, err := d.FixedOpaque(HashSize)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated parent hash", ErrBadManifest)
	}
	copy(m.Parent[:], parent)
	count, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated entry count", ErrBadManifest)
	}
	if count == 0 || count > maxEntries {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrBadManifest, count)
	}
	// Each entry takes exactly 12+HashSize encoded bytes; reject counts
	// the buffer cannot possibly hold before allocating for them.
	if int64(count)*(12+HashSize) > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: %d entries exceed %d remaining bytes", ErrBadManifest, count, d.Remaining())
	}
	// The bound above holds every entry, so none of its reads can fail.
	m.Entries = make([]Entry, count)
	for i := range m.Entries {
		e := &m.Entries[i]
		kind, _ := d.Uint32()
		if kind == 0 || kind > uint32(snapshot.KindGlobals) {
			return nil, fmt.Errorf("%w: entry %d has unknown section kind %d", ErrBadManifest, i, kind)
		}
		e.Kind = snapshot.Kind(kind)
		e.ID, _ = d.Uint32()
		e.Length, _ = d.Uint32()
		h, _ := d.FixedOpaque(HashSize)
		copy(e.Hash[:], h)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, d.Remaining())
	}
	// The content address is the hash of the canonical bytes; accepting a
	// variant encoding (e.g. nonzero XDR string padding) would let two
	// different byte sequences name the same manifest.
	if !bytes.Equal(m.Encode(), raw) {
		return nil, fmt.Errorf("%w: non-canonical encoding", ErrBadManifest)
	}
	return &m, nil
}
