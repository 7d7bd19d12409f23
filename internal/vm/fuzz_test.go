package vm

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/collect"
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

// fuzzStates compiles fuzzSource and returns the program plus the states
// it captures on Ultra 5 at its 7th poll, in the list-building loop, and
// at its 20th, in the summing loop.
func fuzzStates(f testing.TB) (*minic.Program, []byte, []byte) {
	prog, err := minic.Compile(fuzzSource, minic.DefaultPolicy)
	if err != nil {
		f.Fatal(err)
	}
	at := func(poll int) []byte {
		p, err := NewProcess(prog, arch.Ultra5)
		if err != nil {
			f.Fatal(err)
		}
		p.Stdout = &bytes.Buffer{}
		p.MaxSteps = 1_000_000
		polls := 0
		p.PollHook = func(_ *Process, _ *minic.Site) bool {
			polls++
			return polls == poll
		}
		res, err := p.Run()
		if err != nil {
			f.Fatal(err)
		}
		if !res.Migrated {
			f.Fatal("program finished before migration point")
		}
		state, err := p.Recapture()
		if err != nil {
			f.Fatal(err)
		}
		return state
	}
	return prog, at(7), at(20)
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
	intType, ok := prog.TI.Index(types.Int)
	if !ok {
		t.Fatal("int is not in the program's TI table")
	}
	body := xdr.NewEncoder(size)
	body.PutUint32(uint32(n))
	for i := 0; i < n; i++ {
		body.Put4Uint32(uint32(1000+i), 0, uint32(intType), uint32(count))
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

// TestHostileDirectoryAllocatesByInput holds the restore decoder to the
// memory its input justifies: a section directory whose every declaration
// fits the bytes that remain when it is read, but which together claim the
// square of the input, must be rejected having allocated no more than
// 64 KiB plus sixteen times the input. (The 64 KiB input used to make the
// restorer allocate 135 MB; the 256 KiB one ran it into the 512 MB heap
// cap.)
func TestHostileDirectoryAllocatesByInput(t *testing.T) {
	prog, v3, _ := fuzzStates(t)
	for _, size := range []int{64 << 10, 256 << 10} {
		in := hostileDirectory(t, prog, v3, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := restoreProcess(prog, arch.I386, in)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, collect.ErrCorruptStream) {
			t.Errorf("%d bytes: err = %v, want ErrCorruptStream", len(in), err)
		}
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(in)); got > ceiling {
			t.Errorf("restoring %d bytes allocated %d bytes, ceiling %d", len(in), got, ceiling)
		}
	}
}

// FuzzDecodeRef feeds arbitrary bytes — seeded with two real snapshots,
// taken in different loops, mutations of them and hostile directories — to
// the full restore path, RestoreInto. Whatever the fuzzer invents,
// restore must either succeed or return an error: no panic, no runaway
// allocation.
func FuzzDecodeRef(f *testing.F) {
	prog, early, late := fuzzStates(f)
	f.Add(early)
	f.Add(late)
	f.Add(early[:len(early)/2])
	f.Add(late[:len(late)/2])
	for _, seed := range [][]byte{early, late} {
		for _, off := range []int{4, len(seed) / 3, len(seed) - 8} {
			mut := append([]byte(nil), seed...)
			mut[off] ^= 0x81
			f.Add(mut)
		}
	}
	f.Add(hostileDirectory(f, prog, early, 64<<10))
	f.Add(hostileDirectory(f, prog, late, 16<<10))

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := restoreProcess(prog, arch.I386, data)
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
