package vm

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// CompiledFuncs is how many functions p holds compiled code for.
func (p *Process) CompiledFuncs() int {
	n := 0
	for _, l := range p.layouts {
		if l.code != nil {
			n++
		}
	}
	return n
}

// restoreProcess builds a process on machine m from a captured state,
// ready for Run to resume it from the migration point.
func restoreProcess(prog *minic.Program, m *arch.Machine, state []byte) (*Process, error) {
	p, err := NewProcess(prog, m)
	if err != nil {
		return nil, err
	}
	if err := p.RestoreInto(state); err != nil {
		return nil, err
	}
	return p, nil
}

// sectionsOf is the section list of the snapshot of the poll point p is
// stopped at.
func sectionsOf(t testing.TB, p *Process) []snapshot.Section {
	t.Helper()
	rd, err := snapshot.NewReader(xdr.NewDecoder(stopState(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return secs
}

// stopState is the sectioned snapshot of the poll point p is stopped at.
func stopState(t testing.TB, p *Process) []byte {
	t.Helper()
	state, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	return state
}
