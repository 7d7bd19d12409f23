package types

import (
	"testing"

	"repro/internal/arch"
)

// CheckPackedRuns asserts the invariant the collector's run kernels rely
// on: every non-pointer scalar run of t's plan on m is packed — its stride
// is the machine size of its kind — and carries a conversion class.
// Exported to the external tests, which reach the workload programs.
func CheckPackedRuns(tb testing.TB, t *Type, m *arch.Machine) {
	tb.Helper()
	p := NewPlan(t, m)
	if p.ElemSize != t.SizeOf(m) {
		tb.Errorf("%s on %s: ElemSize %d, SizeOf %d", t, m.Name, p.ElemSize, t.SizeOf(m))
	}
	var walk func(ops []PlanOp)
	walk = func(ops []PlanOp) {
		for _, op := range ops {
			switch {
			case op.Sub != nil:
				walk(op.Sub)
			case op.Stride != m.SizeOf(op.Kind):
				tb.Errorf("%s on %s: %s run has stride %d, size %d", t, m.Name, op.Kind, op.Stride, m.SizeOf(op.Kind))
			case (op.Conv == ConvNone) != (op.Kind == arch.Ptr):
				tb.Errorf("%s on %s: %s run has conversion class %d", t, m.Name, op.Kind, op.Conv)
			}
		}
	}
	walk(p.Ops)
}
