package vm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/workload"
)

// pieceWriter keeps what it is handed and the largest single write, and
// fails once more than failAt bytes would have been accepted (negative
// never fails); offered counts every byte it was handed, failed or not.
type pieceWriter struct {
	bytes.Buffer
	failAt, offered, largest int
}

var errRefused = errors.New("test: writer refused")

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.offered += len(p)
	w.largest = max(w.largest, len(p))
	if w.failAt >= 0 && w.Len()+len(p) > w.failAt {
		return 0, errRefused
	}
	return w.Buffer.Write(p)
}

// stopAtPoll compiles src under policy and runs it on m to its poll-th
// granted poll.
func stopAtPoll(t *testing.T, src string, policy minic.PollPolicy, m *arch.Machine, poll int) *Process {
	t.Helper()
	prog, err := minic.Compile(src, policy)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	p.Stdout, p.MaxSteps = &bytes.Buffer{}, 50_000_000
	polls := 0
	p.PollHook = func(*Process, *minic.Site) bool { polls++; return polls == poll }
	if res, err := p.Run(); err != nil || !res.Migrated {
		t.Fatalf("run to poll %d: %v (%+v)", poll, err, res)
	}
	return p
}

// TestStreamedEqualsMaterialized holds the streamed producer to the
// materialized one. For every workload with a migration point, and random
// programs stopped part way, on every machine: the bytes WriteSnapshot
// streams, in writes of at most 64 KiB, are snapshot.Encode of a live
// round's sections of the same state, and restored on every machine they
// recapture to the same bytes. linpack 100's frame body (80 KB) is cut
// across pieces mid-run.
func TestStreamedEqualsMaterialized(t *testing.T) {
	type program struct {
		src    string
		policy minic.PollPolicy
		poll   int
	}
	programs := map[string]program{
		"testpointer": {workload.TestPointerSource(4), minic.PollPolicy{}, 1},
		"linpack":     {workload.LinpackSource(100, false), minic.PollPolicy{}, 1},
		"bitonic":     {workload.BitonicSource(128, 3), minic.PollPolicy{}, 1},
		"jacobi":      {workload.JacobiSource(10, 4), minic.PollPolicy{}, 2},
		"sharded":     {workload.ShardedListsSource(3, 20), minic.PollPolicy{}, 1},
		"mutating":    {workload.MutatingShardsSource(3, 20, 4), minic.PollPolicy{}, 2},
		"writerate":   {workload.WriteRateSource(3, 20, 2, 4), minic.PollPolicy{}, 2},
	}
	for seed := int64(0); seed < 4; seed++ {
		programs[fmt.Sprintf("random%d", seed)] = program{workload.RandomProgram(seed), minic.DefaultPolicy, 3}
	}
	for name, prog := range programs {
		t.Run(name, func(t *testing.T) {
			for _, src := range arch.Machines() {
				p := stopAtPoll(t, prog.src, prog.policy, src, prog.poll)
				w := &pieceWriter{failAt: -1}
				n, err := p.WriteSnapshot(w)
				if err != nil || n != w.Len() || w.largest > 64<<10 {
					t.Fatalf("%s: WriteSnapshot = %d, %v; wrote %d bytes, largest write %d", src.Name, n, err, w.Len(), w.largest)
				}
				streamed := w.Bytes()
				lc := p.NewLiveCapture(0)
				round, err := lc.Round()
				lc.Close()
				if err != nil || !bytes.Equal(round.Snapshot(), streamed) {
					t.Fatalf("%s: the streamed snapshot is not the live round's sections framed (err %v)", src.Name, err)
				}
				for _, dst := range arch.Machines() {
					q, err := restoreProcess(p.Prog, dst, streamed)
					if err != nil {
						t.Fatalf("%s -> %s: restore: %v", src.Name, dst.Name, err)
					}
					if re, err := q.Recapture(); err != nil || !bytes.Equal(re, streamed) {
						t.Fatalf("%s -> %s: the restored process recaptures differently (err %v)", src.Name, dst.Name, err)
					}
				}
			}
		})
	}
}

// TestWriteSnapshotStopsAtAFailedWriter: a writer that fails after N bytes
// fails the capture with its own error, having been handed no more than
// N + 64 KiB — the capture encodes nothing past the piece the writer
// refused — and the stopped process captures as before.
func TestWriteSnapshotStopsAtAFailedWriter(t *testing.T) {
	p := stopPaused(t, workload.LinpackSource(200, false), arch.DEC5000) // a 320 KB frame body
	want := stopState(t, p)
	for _, n := range []int{0, 7, 8 + 12, 1000, 70 << 10, 200 << 10, len(want) - 1} {
		w := &pieceWriter{failAt: n}
		if _, err := p.WriteSnapshot(w); !errors.Is(err, errRefused) || w.offered > n+64<<10 {
			t.Errorf("writer failing after %d bytes: %v, offered %d bytes", n, err, w.offered)
		}
	}
	if got := stopState(t, p); !bytes.Equal(got, want) {
		t.Error("the process captures differently after failed captures")
	}
}
