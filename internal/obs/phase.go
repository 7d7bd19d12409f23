package obs

import (
	"context"
	"runtime/pprof"
)

// Phase runs f with the pprof label phase=name on the calling goroutine, so
// a CPU profile splits by migration phase — collect, transport, restore —
// the way the span tree does: go tool pprof -tagfocus phase=restore. It
// labels the loops that do a phase's work, a handful of label sets per
// migration and none per block. Phases are leaves: one must not run inside
// another, because leaving the inner one would unlabel the rest of the
// outer (the runtime offers no way to read a goroutine's labels back).
func Phase(name string, f func() error) (err error) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = f() })
	return err
}

// PhaseOf is Phase for a function that also returns a value.
func PhaseOf[T any](name string, f func() (T, error)) (v T, err error) {
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { v, err = f() })
	return v, err
}
