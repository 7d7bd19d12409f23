package vm

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/types"
	"repro/internal/xdr"
)

// DescribeState renders a captured process state as a human-readable
// listing without building a process: the execution state header, then
// every item and block record of the collection stream. It is the
// introspection behind cmd/migstate and a debugging aid when a restore
// fails on a different build of the program.
func DescribeState(prog *minic.Program, state []byte) (string, error) {
	var b strings.Builder
	dec := xdr.NewDecoder(state)

	magic, err := dec.Uint32()
	if err != nil || magic != execMagic {
		return "", fmt.Errorf("vm: not an execution state stream")
	}
	nframes, err := dec.Uint32()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "execution state: %d active frame(s)\n", nframes)

	type frameInfo struct {
		fn   *minic.FuncSymbol
		site *minic.Site
	}
	frames := make([]frameInfo, nframes)
	for i := 0; i < int(nframes); i++ {
		name, err := dec.String()
		if err != nil {
			return "", err
		}
		siteID, err := dec.Uint32()
		if err != nil {
			return "", err
		}
		fn := prog.Func(name)
		if fn == nil {
			return "", fmt.Errorf("vm: unknown function %q in stream", name)
		}
		site := fn.SiteByID(int(siteID))
		if site == nil {
			return "", fmt.Errorf("vm: function %s has no site %d", name, siteID)
		}
		frames[i] = frameInfo{fn, site}
		kind := "poll-point"
		if site.IsCall {
			kind = "call site"
		}
		fmt.Fprintf(&b, "  frame %d: %s stopped at %s %d (%s), %d live variables\n",
			i+1, name, kind, siteID, site.Stmt.Position(), len(site.Live))
	}

	d := &describer{prog: prog, dec: dec, b: &b, restored: map[msr.BlockID]bool{}}
	fmt.Fprintf(&b, "memory state:\n")
	for i := int(nframes) - 1; i >= 0; i-- {
		fr := frames[i]
		for _, v := range fr.site.Live {
			fmt.Fprintf(&b, "  [%s] %s %s:\n", fr.fn.Name, v.Type, v.Name)
			if err := d.item(2); err != nil {
				return "", err
			}
		}
	}
	for _, g := range prog.Globals {
		fmt.Fprintf(&b, "  [global] %s %s:\n", g.Type, g.Name)
		if err := d.item(2); err != nil {
			return "", err
		}
	}
	if dec.Remaining() != 0 {
		fmt.Fprintf(&b, "WARNING: %d trailing bytes\n", dec.Remaining())
	}
	fmt.Fprintf(&b, "totals: %d blocks, %d bytes of stream\n", d.blocks, len(state))
	return b.String(), nil
}

// describer walks the collection stream mirroring the Restorer's state
// machine, but renders instead of writing memory.
type describer struct {
	prog     *minic.Program
	dec      *xdr.Decoder
	b        *strings.Builder
	restored map[msr.BlockID]bool
	blocks   int
}

func (d *describer) indent(n int) {
	d.b.WriteString(strings.Repeat("  ", n))
}

// item consumes one pointer-ref item (and its block record if present).
func (d *describer) item(depth int) error {
	seg, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	if seg == 0xffffffff {
		d.indent(depth)
		d.b.WriteString("null\n")
		return nil
	}
	if seg >= uint32(memory.NumSegments) {
		return fmt.Errorf("vm: bad segment %d in stream", seg)
	}
	major, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	minor, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	ordinal, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	id := msr.BlockID{Seg: memory.Segment(seg), Major: major, Minor: minor}
	d.indent(depth)
	if d.restored[id] {
		fmt.Fprintf(d.b, "-> %s element %d (already transferred)\n", id, ordinal)
		return nil
	}
	d.restored[id] = true
	fmt.Fprintf(d.b, "-> %s element %d, record follows:\n", id, ordinal)
	return d.block(depth + 1)
}

// block consumes one block record.
func (d *describer) block(depth int) error {
	tIdx, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	count, err := d.dec.Uint32()
	if err != nil {
		return err
	}
	ty, err := d.prog.TI.At(int(tIdx))
	if err != nil {
		return err
	}
	d.blocks++
	d.indent(depth)
	fmt.Fprintf(d.b, "block: %s x%d (%d scalars)\n", ty, count, int(count)*ty.ScalarCount())
	// The wire layout is machine-independent; walk the plan of any
	// machine (offsets are irrelevant, only kinds and counts matter).
	plan := ty.Plan(arch.Ultra5)
	for i := 0; i < int(count); i++ {
		if err := d.ops(plan.Ops, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (d *describer) ops(ops []types.PlanOp, depth int) error {
	for _, op := range ops {
		switch {
		case op.Sub != nil:
			for i := 0; i < op.Count; i++ {
				if err := d.ops(op.Sub, depth); err != nil {
					return err
				}
			}
		case op.Kind == arch.Ptr:
			for i := 0; i < op.Count; i++ {
				if err := d.item(depth); err != nil {
					return err
				}
			}
		default:
			ws := types.WireSize(op.Kind)
			if _, err := d.dec.Take(ws * op.Count); err != nil {
				return err
			}
			d.indent(depth)
			fmt.Fprintf(d.b, "%d x %s (%d bytes)\n", op.Count, op.Kind, ws*op.Count)
		}
	}
	return nil
}
