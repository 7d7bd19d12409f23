package collect

import "errors"

// The decode failure modes are split into two sentinel classes so the
// session layer and the migd daemon can report them distinctly: a stream
// that cannot be trusted at all versus a well-formed stream that belongs
// to a different program build or plan.
var (
	// ErrCorruptStream marks decode failures that indicate the stream
	// itself is damaged: truncated records, invalid segments, type
	// indices outside the TI table, content that does not cover its
	// declared blocks.
	ErrCorruptStream = errors.New("collect: corrupt collection stream")
	// ErrMismatch marks a structurally valid stream that disagrees with
	// this process image: block shapes that differ from the
	// destination's layout, references to variable blocks the
	// destination never laid out, live sets of the wrong length.
	ErrMismatch = errors.New("collect: stream does not match program or plan")
	// ErrTooDeep marks a pointer chain the monolithic (v1) traversal will
	// not follow: its Saver and Restorer are the paper's recursive
	// depth-first walk, one level per block along a chain, and past
	// maxDepth they refuse rather than exhaust the goroutine stack — which
	// is fatal to the whole process, not an error. The sectioned collector
	// walks with an explicit stack and has no such limit.
	ErrTooDeep = errors.New("collect: pointer chain exceeds the depth the recursive v1 traversal follows")
)

// maxDepth is where the v1 traversal gives up: about 100 MB of goroutine
// stack at the kilobyte or so one level takes, well inside the runtime's
// limit (1 GB on 64-bit hosts, 250 MB on 32-bit).
const maxDepth = 100_000

// errContextDepth is how far down a chain the v1 traversal still names the
// block an error passed through on its way out. Every level formats the
// message of the levels below it again, so naming all of a chain of
// maxDepth blocks would copy a quarter of a terabyte.
const errContextDepth = 64
