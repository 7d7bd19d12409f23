package msr

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/memory"
	"repro/internal/types"
)

// buildTable registers n heap blocks and returns the table plus their
// base addresses.
func buildTable(b *testing.B, n int, useIndex bool) (*Table, []memory.Address, *arch.Machine) {
	b.Helper()
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	tbl.UseBaseIndex = useIndex
	addrs := make([]memory.Address, n)
	for i := 0; i < n; i++ {
		a, err := sp.Malloc(24)
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = a
		if err := tbl.Register(&Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, addrs, m
}

func benchLookup(b *testing.B, n int, useIndex bool, interior bool) {
	tbl, addrs, m := buildTable(b, n, useIndex)
	off := memory.Address(0)
	if interior {
		off = 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := tbl.Lookup(m, addrs[i%n]+off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupBinarySearch1k(b *testing.B)   { benchLookup(b, 1000, false, false) }
func BenchmarkLookupBinarySearch100k(b *testing.B) { benchLookup(b, 100000, false, false) }
func BenchmarkLookupHashIndex1k(b *testing.B)      { benchLookup(b, 1000, true, false) }
func BenchmarkLookupHashIndex100k(b *testing.B)    { benchLookup(b, 100000, true, false) }
func BenchmarkLookupInterior100k(b *testing.B)     { benchLookup(b, 100000, true, true) }

func BenchmarkRegisterUnregister(b *testing.B) {
	m := arch.Ultra5
	sp := memory.NewSpace(m)
	tbl := NewTable()
	a, _ := sp.Malloc(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &Block{ID: tbl.NextHeapID(), Addr: a, Type: types.Double, Count: 3}
		if err := tbl.Register(blk); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Unregister(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	tbl, addrs, m := buildTable(b, 10000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Resolve(tbl, m, addrs[i%len(addrs)]+16); err != nil {
			b.Fatal(err)
		}
	}
}
