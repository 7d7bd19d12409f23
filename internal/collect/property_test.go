package collect

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/msr"
	"repro/internal/types"
)

// This file property-tests the full encode/decode stack on randomly
// generated type shapes: random structs, arrays, and pointers filled with
// random values are collected on one random machine and restored on
// another, and every scalar is compared semantically. This exercises the
// plan compiler, ordinal arithmetic, layout translation, and the wire
// codec far beyond the hand-written cases.

// typeGen generates random block types.
type typeGen struct {
	rng  *rand.Rand
	tags int
}

var scalarKinds = []arch.PrimKind{
	arch.Char, arch.UChar, arch.Short, arch.UShort, arch.Int, arch.UInt,
	arch.Long, arch.ULong, arch.LongLong, arch.ULongLong, arch.Float, arch.Double,
}

// genType produces a random type of bounded depth. Pointers always point
// at double (the pointee blocks are built separately).
func (g *typeGen) genType(depth int) *types.Type {
	choice := g.rng.Intn(10)
	if depth <= 0 {
		choice = g.rng.Intn(5) // scalars only at the leaves
	}
	switch {
	case choice < 4:
		return types.PrimType(scalarKinds[g.rng.Intn(len(scalarKinds))])
	case choice < 5:
		return types.PointerTo(types.Double)
	case choice < 8:
		return types.ArrayOf(g.genType(depth-1), 1+g.rng.Intn(4))
	default:
		g.tags++
		st := types.NewStruct(fmt.Sprintf("rnd%d_%d", g.rng.Int63()&0xffff, g.tags))
		n := 1 + g.rng.Intn(4)
		fields := make([]types.Field, n)
		for i := range fields {
			fields[i] = types.Field{
				Name: fmt.Sprintf("f%d", i),
				Type: g.genType(depth - 1),
			}
		}
		st.DefineFields(fields)
		return st
	}
}

// scalarValue picks a random canonical value for a scalar kind.
func scalarValue(rng *rand.Rand, k arch.PrimKind) uint64 {
	switch k {
	case arch.Float:
		return uint64(rng.Uint32())&0x7fffffff | 0x3f000000 // avoid NaN payload games
	case arch.Double:
		return rng.Uint64()&0x7fffffffffffffff | 0x3ff0000000000000
	default:
		return rng.Uint64()
	}
}

// fillRandom writes random values into every scalar of a block on machine
// m, recording the canonical (machine-normalized) expectations; pointer
// scalars all point at the shared target block (or null).
func fillRandom(t *testing.T, rng *rand.Rand, p *proc, b *msr.Block, target memory.Address) []uint64 {
	t.Helper()
	var want []uint64
	es := b.Type.SizeOf(p.m)
	for elem := 0; elem < b.Count; elem++ {
		base := b.Addr + memory.Address(elem*es)
		for ord := 0; ord < b.Type.ScalarCount(); ord++ {
			st := b.Type.ScalarType(ord)
			addr := base + memory.Address(b.Type.OrdinalToOffset(p.m, ord))
			if st.IsPointer() {
				val := target
				if rng.Intn(3) == 0 {
					val = 0
				}
				if err := p.space.StorePtr(addr, val); err != nil {
					t.Fatal(err)
				}
				if val == 0 {
					want = append(want, 0)
				} else {
					want = append(want, 1) // non-null marker
				}
				continue
			}
			v := scalarValue(rng, st.Prim)
			if err := p.space.StorePrim(addr, st.Prim, v); err != nil {
				t.Fatal(err)
			}
			got, err := p.space.LoadPrim(addr, st.Prim)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, got) // machine-normalized expectation
		}
	}
	return want
}

// wireNormalize converts a source-machine canonical value to what the
// destination machine should hold after the canonical-width wire hop.
func wireNormalize(v uint64, k arch.PrimKind, dst *arch.Machine) uint64 {
	switch k {
	case arch.Float, arch.Double:
		return v
	}
	size := dst.SizeOf(k)
	if size == 8 {
		return v
	}
	shift := uint(64 - 8*size)
	if k.IsSigned() {
		return uint64(int64(v<<shift) >> shift)
	}
	return v << shift >> shift
}

func TestRandomTypesRoundTrip(t *testing.T) {
	machines := arch.Machines()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		srcM := machines[rng.Intn(len(machines))]
		dstM := machines[rng.Intn(len(machines))]

		g := &typeGen{rng: rng}
		ty := g.genType(3)
		if ty.SizeOf(srcM) == 0 {
			continue
		}
		count := 1 + rng.Intn(3)

		ti := types.NewTI()
		ti.Add(ty)
		ti.Add(types.Double)
		ti.Add(types.PointerTo(ty))

		src := newProc(srcM, ti)
		dst := newProc(dstM, ti)
		sroot := src.global(t, types.PointerTo(ty), "root")
		droot := dst.global(t, types.PointerTo(ty), "root")

		blk := src.heap(t, ty, count)
		tgt := src.heap(t, types.Double, 1)
		src.space.StorePrim(tgt.Addr, arch.Double, scalarValue(rng, arch.Double))
		want := fillRandom(t, rng, src, blk, tgt.Addr)
		src.space.StorePtr(sroot.Addr, blk.Addr)

		st, err := streamed(src.space, src.table, src.ti, Roots{Globals: []memory.Address{sroot.Addr}})
		if err != nil {
			t.Fatalf("trial %d (%s): save: %v", trial, ty, err)
		}
		if _, err := restoreGlobals(dst, st, []memory.Address{droot.Addr}); err != nil {
			t.Fatalf("trial %d (%s->%s, %s): restore: %v", trial, srcM.Name, dstM.Name, ty, err)
		}

		// Compare scalar by scalar.
		dblk, ok := dst.table.ByID(blk.ID)
		if !ok {
			t.Fatalf("trial %d: block not restored", trial)
		}
		des := ty.SizeOf(dstM)
		idx := 0
		for elem := 0; elem < count; elem++ {
			base := dblk.Addr + memory.Address(elem*des)
			for ord := 0; ord < ty.ScalarCount(); ord++ {
				st := ty.ScalarType(ord)
				addr := base + memory.Address(ty.OrdinalToOffset(dstM, ord))
				exp := want[idx]
				idx++
				if st.IsPointer() {
					pv, err := dst.space.LoadPtr(addr)
					if err != nil {
						t.Fatal(err)
					}
					if (pv != 0) != (exp != 0) {
						t.Fatalf("trial %d: pointer nullity mismatch at ordinal %d", trial, ord)
					}
					continue
				}
				got, err := dst.space.LoadPrim(addr, st.Prim)
				if err != nil {
					t.Fatal(err)
				}
				wantV := wireNormalize(exp, st.Prim, dstM)
				if got != wantV {
					t.Fatalf("trial %d (%s -> %s): type %s ordinal %d (%s): got %#x, want %#x",
						trial, srcM.Name, dstM.Name, ty, ord, st.Prim, got, wantV)
				}
			}
		}
	}
}
