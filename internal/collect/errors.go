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
)
