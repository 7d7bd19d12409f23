package core

// The envelope header of a cold transfer: magic, version, source machine
// name, program digest, then the sectioned snapshot, cut into chunks by
// internal/stream. This file is the only place it is encoded or decoded.

import (
	"repro/internal/xdr"
)

// envMagic guards every migration envelope ("HPM1").
const envMagic = 0x48504d31

// VersionSectioned is the envelope's version tag: the header is followed
// by a sectioned (internal/snapshot) state — typed, independently
// CRC-framed sections. Versions 1 (the monolithic state sealed behind an
// up-front checksum), 2 (a chunk stream of it) and 4 (the live rounds'
// former protocol number; they carry no envelope) are retired; the numbers
// are not reused.
const VersionSectioned uint32 = 3

// putHeader encodes the envelope header.
func putHeader(enc *xdr.Encoder, srcName string, digest uint32) {
	enc.PutUint32(envMagic)
	enc.PutUint32(VersionSectioned)
	enc.PutString(srcName)
	enc.PutUint32(digest)
}

// openHeader decodes the envelope header and verifies it against the
// engine: the magic and version must match and the digest must identify
// this engine's program.
func (e *Engine) openHeader(dec *xdr.Decoder) error {
	magic, err := dec.Uint32()
	if err != nil || magic != envMagic {
		return ErrBadEnvelope
	}
	version, err := dec.Uint32()
	if err != nil {
		return ErrBadEnvelope
	}
	if version != VersionSectioned {
		return ErrVersionMismatch
	}
	if _, err := dec.String(); err != nil {
		return ErrBadEnvelope
	}
	digest, err := dec.Uint32()
	if err != nil {
		return ErrBadEnvelope
	}
	if digest != e.Digest() {
		return ErrProgramMismatch
	}
	return nil
}
