package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/memory"
	"repro/internal/minic"
	"repro/internal/snapshot"
	"repro/internal/types"
	"repro/internal/xdr"
)

// fuzzSource is pointer-rich on purpose: a linked list reached both from
// a global and a local, so the captured state exercises heap refs, stack
// refs, and global refs.
const fuzzSource = `
	struct node { double data; struct node *link; };
	struct node *head;
	int main() {
		struct node *cur;
		int i, sum;
		head = 0;
		for (i = 1; i <= 12; i++) {
			cur = (struct node *) malloc(sizeof(struct node));
			cur->data = i;
			cur->link = head;
			head = cur;
		}
		sum = 0;
		cur = head;
		while (cur) {
			sum += (int)cur->data;
			cur = cur->link;
		}
		return sum;
	}
`

// fuzzStates compiles fuzzSource, runs it to the n-th poll on Ultra 5,
// and returns the program plus its captured v1 and v3 (sectioned) states.
func fuzzStates(f testing.TB) (*minic.Program, []byte, []byte) {
	prog, err := minic.Compile(fuzzSource, minic.DefaultPolicy)
	if err != nil {
		f.Fatal(err)
	}
	p, err := NewProcess(prog, arch.Ultra5)
	if err != nil {
		f.Fatal(err)
	}
	p.Stdout = &bytes.Buffer{}
	p.MaxSteps = 1_000_000
	polls := 0
	p.PollHook = func(_ *Process, _ *minic.Site) bool {
		polls++
		return polls == 7
	}
	res, err := p.Run()
	if err != nil {
		f.Fatal(err)
	}
	if !res.Migrated {
		f.Fatal("program finished before migration point")
	}
	v3, err := p.CaptureSections(0)
	if err != nil {
		f.Fatal(err)
	}
	return prog, res.State, v3
}

// hostileDirectory builds a well-framed sectioned snapshot of about size
// bytes: v3 with its heap sections replaced by one whose directory
// declares size/32 blocks of int, every one as large as the bytes behind
// the directory allow. A directory is decoded in full before any content
// is consumed, so a restorer that holds each declaration only against the
// bytes remaining accepts them all: size²/64 bytes of heap.
func hostileDirectory(t testing.TB, prog *minic.Program, v3 []byte, size int) []byte {
	rd, err := snapshot.NewReader(xdr.NewDecoder(v3))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := size / 32
	count := (size - 4 - 16*n) / 4
	intType := uint32(prog.TI.MustIndex(types.Int))
	body := xdr.NewEncoder(size)
	body.PutUint32(uint32(n))
	for i := 0; i < n; i++ {
		body.Put4Uint32(uint32(1000+i), 0, intType, uint32(count))
	}
	body.PutFixedOpaque(make([]byte, 4*count))
	out := []snapshot.Section{secs[0], {Kind: snapshot.KindHeap, Body: body.Bytes()}}
	for _, s := range secs[1:] {
		if s.Kind != snapshot.KindHeap {
			out = append(out, s)
		}
	}
	return snapshot.Encode(out)
}

// hostileRecordChain builds a v1 stream of size bytes: v1 up to and
// including its first reference to a heap block, then a chain of records
// of type "struct node *" — each an array of pointers as long as the
// bytes behind its header allow, whose first pointer refers to the next
// record. A record is checked before the records enclosing it have
// consumed their contents, so the same quadratic claim arises as in
// hostileDirectory.
func hostileRecordChain(t testing.TB, prog *minic.Program, v1 []byte, size int) []byte {
	var ptr uint32
	for i, ty := range prog.TI.Types() {
		if ty.Kind == types.KPointer {
			ptr = uint32(i)
		}
	}
	// The first heap reference of the stream: (Heap, major, 0, 0) followed
	// by the record header of one struct node.
	at := -1
	for off := 0; off+24 <= len(v1); off += 4 {
		w := func(i int) uint32 { return binary.BigEndian.Uint32(v1[off+4*i:]) }
		if w(0) == uint32(memory.Heap) && w(2) == 0 && w(3) == 0 && w(4) == 1 && w(5) == 1 {
			at = off + 16
			break
		}
	}
	if at < 0 {
		t.Fatal("no heap reference in the v1 seed")
	}
	out := xdr.NewEncoder(size)
	out.PutFixedOpaque(v1[:at])
	for i := 0; out.Len()+24 <= size; i++ {
		out.Put2Uint32(ptr, uint32((size-out.Len()-8)/4))
		out.Put4Uint32(uint32(memory.Heap), uint32(1000+i), 0, 0)
	}
	return out.Bytes()
}

// TestHostileDirectoryAllocatesByInput holds the restore decoders to the
// memory their input justifies: a sectioned directory and a v1 record
// chain whose every declaration fits the bytes that remain when it is
// read, but which together claim the square of the input, must be
// rejected having allocated no more than 64 KiB plus sixteen times the
// input. (The two 64 KiB inputs used to make the restorer allocate 135 MB
// and 581 MB; the 256 KiB ones ran it into the 512 MB heap cap.)
func TestHostileDirectoryAllocatesByInput(t *testing.T) {
	prog, v1, v3 := fuzzStates(t)
	for _, size := range []int{64 << 10, 256 << 10} {
		inputs := map[string][]byte{
			"sectioned directory": hostileDirectory(t, prog, v3, size),
			"v1 record chain":     hostileRecordChain(t, prog, v1, size),
		}
		for name, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RestoreProcess(prog, arch.I386, in)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, collect.ErrCorruptStream) {
				t.Errorf("%s, %d bytes: err = %v, want ErrCorruptStream", name, len(in), err)
			}
			if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(in)); got > ceiling {
				t.Errorf("%s: restoring %d bytes allocated %d bytes, ceiling %d", name, len(in), got, ceiling)
			}
		}
	}
}

// FuzzDecodeRef feeds arbitrary bytes — seeded with real v1 and v3
// snapshots and mutations of them — to the full restore path. Both the
// monolithic and the sectioned decoder sit behind RestoreProcess, and
// whatever the fuzzer invents, restore must either succeed or return an
// error: no panic, no runaway allocation.
func FuzzDecodeRef(f *testing.F) {
	prog, v1, v3 := fuzzStates(f)
	f.Add(v1)
	f.Add(v3)
	f.Add(v1[:len(v1)/2])
	f.Add(v3[:len(v3)/2])
	for _, seed := range [][]byte{v1, v3} {
		for _, off := range []int{4, len(seed) / 3, len(seed) - 8} {
			mut := append([]byte(nil), seed...)
			mut[off] ^= 0x81
			f.Add(mut)
		}
	}
	f.Add(hostileDirectory(f, prog, v3, 64<<10))
	f.Add(hostileRecordChain(f, prog, v1, 64<<10))

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := RestoreProcess(prog, arch.I386, data)
		if err != nil {
			return
		}
		// A state the decoder accepted must also execute without crashing
		// the vm. A mutated-but-well-formed state may legitimately hit the
		// step limit or exit nonzero, so only panics count as failures.
		q.Stdout = &bytes.Buffer{}
		q.MaxSteps = 1_000_000
		_, _ = q.Run()
	})
}
