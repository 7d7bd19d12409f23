// Package collect implements the MSR Manipulation (MSRM) library of the
// paper: the data collection and restoration mechanisms that transfer the
// memory state of a process in a machine-independent format.
//
// The paper's four interface routines map onto one codec, the sectioned
// one (sectioned.go):
//
//   - Save_variable / Save_pointer are Walk and Layout.Encode: a
//     depth-first walk from the live variables through the connected
//     component of the MSR graph each reaches, marking what it visits, and
//     the section encoder's putRef, which writes a pointer as its
//     machine-independent (header, offset) reference;
//   - Restore_variable / Restore_pointer are RestoreVarSection and
//     RestoreHeapSection, which rebuild the blocks in the memory space of
//     the destination process, and the flat Restorer.RestorePointer, which
//     translates a reference back into a machine-specific address.
//
// Visited memory blocks are marked so they are not saved again, which both
// bounds the snapshot size and preserves sharing: a block referenced from
// five places is transferred once and all five restored pointers alias it,
// and cyclic structures terminate. Each block's record lives in the
// directory of the section that owns it, so a reference is always flat.
//
// Scalars are encoded big-endian at canonical widths (char 1, short 2,
// int/float 4, long/double 8) regardless of the machine's own widths, so an
// ILP32 and an LP64 process produce identical snapshots.
package collect

import "time"

// nullSeg is the wire segment value encoding a null pointer.
const nullSeg = 0xffffffff

// SaveStats decomposes the cost of a collection in the terms of the
// paper's Section 4.2: Collect = MSRLT_search + Encode_and_Copy.
type SaveStats struct {
	// SearchTime is the partition walk's wall time, which resolves every
	// pointer through the MSRLT; EncodeTime is the wall time of encoding
	// the section bodies after it, not of writing them out. Every capture
	// measures both.
	SearchTime time.Duration
	EncodeTime time.Duration
	// Searches and SearchSteps mirror the MSRLT counters for this
	// collection.
	Searches    int64
	SearchSteps int64
	// Blocks is the number of memory blocks saved.
	Blocks int64
	// Pointers is the number of pointer scalars encoded (including null).
	Pointers int64
	// NullPointers counts the null subset.
	NullPointers int64
	// DataBytes is the number of content bytes encoded (excluding refs).
	DataBytes int64
}
