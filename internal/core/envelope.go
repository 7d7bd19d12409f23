package core

// The envelope header shared by both envelopes. The monolithic (version 1)
// and the sectioned (version 3) envelope open with the same four fields —
// magic, version, source machine name, program digest — and this file is
// the only place they are encoded or decoded; the two differ only in what
// follows the header (an up-front checksum and opaque payload for v1, the
// sectioned snapshot, cut into chunks by internal/stream, for v3).

import (
	"repro/internal/xdr"
)

// envMagic guards every migration envelope ("HPM1").
const envMagic = 0x48504d31

// Envelope versions: codec tags in the envelope header, not negotiated
// values — which codec a transfer uses follows from its shape. Version 2
// (a chunk stream of the monolithic state) and version 4 (the live
// rounds' former protocol number; they carry no envelope) are retired;
// the numbers are not reused.
const (
	// VersionMono is the monolithic envelope: the whole captured state
	// sealed into one frame behind an up-front payload checksum.
	VersionMono uint32 = 1
	// VersionSectioned is the sectioned envelope: the header is followed
	// by a sectioned (internal/snapshot) state — typed, independently
	// CRC-framed sections — cut into CRC-framed chunks by
	// internal/stream, which enforces integrity per chunk and per stream.
	VersionSectioned uint32 = 3
)

// envHeader is a decoded envelope header.
type envHeader struct {
	version uint32
	srcName string
	digest  uint32
}

// putHeader encodes the shared envelope header.
func putHeader(enc *xdr.Encoder, version uint32, srcName string, digest uint32) {
	enc.PutUint32(envMagic)
	enc.PutUint32(version)
	enc.PutString(srcName)
	enc.PutUint32(digest)
}

// openHeader decodes the shared envelope header and verifies it against the
// engine: the magic must match, the version must equal wantVersion, and the
// digest must identify this engine's program.
func (e *Engine) openHeader(dec *xdr.Decoder, wantVersion uint32) (envHeader, error) {
	magic, err := dec.Uint32()
	if err != nil || magic != envMagic {
		return envHeader{}, ErrBadEnvelope
	}
	var h envHeader
	if h.version, err = dec.Uint32(); err != nil {
		return envHeader{}, ErrBadEnvelope
	}
	if h.version != wantVersion {
		return envHeader{}, ErrVersionMismatch
	}
	if h.srcName, err = dec.String(); err != nil {
		return envHeader{}, ErrBadEnvelope
	}
	if h.digest, err = dec.Uint32(); err != nil {
		return envHeader{}, ErrBadEnvelope
	}
	if h.digest != e.Digest() {
		return envHeader{}, ErrProgramMismatch
	}
	return h, nil
}
