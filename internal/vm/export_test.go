package vm

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
