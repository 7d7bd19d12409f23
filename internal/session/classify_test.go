package session

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/stream"
)

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{fmt.Errorf("vm: restoring heap section 2: %w", collect.ErrCorruptStream), FailCorrupt},
		{fmt.Errorf("stream: %w", stream.ErrVerify), FailCorrupt},
		{fmt.Errorf("stream: at chunk 3: %w", stream.ErrProtocol), FailCorrupt},
		{fmt.Errorf("vm: %w", snapshot.ErrChecksum), FailCorrupt},
		{snapshot.ErrTruncated, FailCorrupt},
		{snapshot.ErrBadSection, FailCorrupt},
		{fmt.Errorf("prologue: %w", snapshot.ErrBadSnapshot), FailCorrupt},
		{fmt.Errorf("vm: frame count: %w", collect.ErrMismatch), FailMismatch},
		{core.ErrProgramMismatch, FailMismatch},
		{fmt.Errorf("session: %w", ErrRejected), FailNegotiation},
		{ErrUnknownProgram, FailNegotiation},
		{errors.New("connection reset by peer"), FailTransport},
		{fmt.Errorf("read tcp: %w", errors.New("i/o timeout")), FailTransport},
		// The affirmatively matched shutdown and fault sentinels: a daemon
		// drain, a peer crash, a deadline, a truncated read, and injected
		// chaos must all land in FailTransport by name, not by falling
		// through the default.
		{fmt.Errorf("session: handshake read: %w", link.ErrClosed), FailTransport},
		{fmt.Errorf("session: restored send: %w", net.ErrClosed), FailTransport},
		{fmt.Errorf("stream: %w", os.ErrDeadlineExceeded), FailTransport},
		{fmt.Errorf("session: %w", io.EOF), FailTransport},
		{fmt.Errorf("frame: %w", io.ErrUnexpectedEOF), FailTransport},
		{fmt.Errorf("session: commit send: %w", chaos.ErrInjected), FailTransport},
	}
	for _, c := range cases {
		if got := ClassifyFailure(c.err); got != c.want {
			t.Errorf("ClassifyFailure(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestDaemonAbortClassifiesInFlightAsTransport pins the satellite fix: a
// daemon hard-stopped mid-session (the second SIGTERM, a drain deadline)
// closes the in-flight connections under their sessions, and each failure
// must land in the named FailTransport bucket — an operator reading the
// counters sees "transport", never an unclassified mystery.
func TestDaemonAbortClassifiesInFlightAsTransport(t *testing.T) {
	e := newListEngine(t)
	reg := NewRegistry()
	reg.Add("list", e)
	metrics := obs.NewRegistry()
	d := &Daemon{Registry: reg, Mach: arch.SPARC20, Metrics: metrics}
	addr, served := daemonFixture(t, d)

	conn, err := link.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A well-formed handshake, then silence: the worker accepts and
	// blocks reading state frames — a genuinely in-flight session.
	o := offer{digest: e.Digest(), program: "list", machine: arch.DEC5000.Name}
	if err := conn.Send(marshalOffer(o)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // ACCEPT
		t.Fatal(err)
	}
	d.Abort()
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metrics.Counter("session.failed").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted session never counted as failed")
		}
		time.Sleep(time.Millisecond)
	}
	if n := metrics.Counter("session.fail.transport").Value(); n != 1 {
		t.Errorf("session.fail.transport = %d, want 1 (an aborted in-flight session must classify as transport)", n)
	}
}
