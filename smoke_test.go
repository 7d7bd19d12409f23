package repro

// Smoke tests for the shipped binaries: every command under cmd/ and
// examples/ must build, and the walk-through examples and migrun's hops
// must run end to end with the output the README promises.
// These shell out to the go tool, so they skip under -short and when no
// go binary is on PATH (e.g. a stripped test container).

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/link"
)

func goTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke test shells out to the go tool; skipped in -short")
	}
	path, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	return path
}

// TestSmokeBuildAll builds every cmd/ and examples/ binary.
func TestSmokeBuildAll(t *testing.T) {
	gobin := goTool(t)
	dir := t.TempDir()
	cmd := exec.Command(gobin, "build", "-o", dir+string(filepath.Separator),
		"./cmd/...", "./examples/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/... ./examples/...: %v\n%s", err, out)
	}
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 5 {
		t.Fatalf("built only %d binaries (%v), want the full cmd/ + examples/ set", len(bins), bins)
	}
}

// runExample go-runs one example and returns its combined output.
func runExample(t *testing.T, pkg string) string {
	t.Helper()
	gobin := goTool(t)
	out, err := exec.Command(gobin, "run", pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s: %v\n%s", pkg, err, out)
	}
	return string(out)
}

// TestSmokeQuickstart runs the README's minimal migration end to end.
func TestSmokeQuickstart(t *testing.T) {
	out := runExample(t, "./examples/quickstart")
	for _, want := range []string{
		"sum of squares = 333833500",
		"migrated 220 bytes of state",
		"exit code 0 on sparc20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("quickstart output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeCheckpoint runs the cross-architecture checkpoint/restart
// example end to end.
func TestSmokeCheckpoint(t *testing.T) {
	out := runExample(t, "./examples/checkpoint")
	for _, want := range []string{
		"checkpointed on amd64",
		"sum of 1/n^2 over 200000 terms = 1.644929",
		"restarted on sparcv9, completed with exit code 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("checkpoint output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeMigrunHops migrates a program through two machines with migrun:
// each hop is a session, reported with its timing, and the program exits
// with its own code on the last machine (testdata/series.mc: 23).
func TestSmokeMigrunHops(t *testing.T) {
	gobin := goTool(t)
	migrun := filepath.Join(t.TempDir(), "migrun")
	if out, err := exec.Command(gobin, "build", "-o", migrun, "./cmd/migrun").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/migrun: %v\n%s", err, out)
	}
	out, err := exec.Command(migrun, "-hops", "sparc20,amd64", "-timing", "testdata/series.mc").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 23 {
		t.Errorf("migrun: %v, want exit code 23\n%s", err, out)
	}
	for _, want := range []string{
		"[migrated ultra5 -> sparc20: collect=",
		"[migrated sparc20 -> amd64: collect=",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("migrun output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeJacobi runs the relay example: eight hops, then the checksum of
// an unmigrated run.
func TestSmokeJacobi(t *testing.T) {
	out := runExample(t, "./examples/jacobi")
	for _, want := range []string{
		"hop 8: sparcv9 -> dec5000, collect=",
		"checksum matches the unmigrated reference (code 95)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("jacobi output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeMSRGraph runs the Figure 1 example: the graph restored on the
// big-endian machine is isomorphic to the source's, and the program
// completes there.
func TestSmokeMSRGraph(t *testing.T) {
	out := runExample(t, "./examples/msrgraph")
	for _, want := range []string{
		"restored on sparc20: MSR graph is isomorphic to the source snapshot",
		"resumed to completion with exit code 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("msrgraph output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeMigdRunDeadline migrates into a listener that accepts the
// connection and never answers. The paused source must not be stranded:
// -session-timeout bounds the client's connection as it does the daemon's,
// and on expiry the failure path rolls the source back, completes the
// program locally and exits with its code (testdata/series.mc: 23).
func TestSmokeMigdRunDeadline(t *testing.T) {
	gobin := goTool(t)
	migd := filepath.Join(t.TempDir(), "migd")
	if out, err := exec.Command(gobin, "build", "-o", migd, "./cmd/migd").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/migd: %v\n%s", err, out)
	}
	l, err := link.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if conn, err := l.Accept(); err == nil {
			defer conn.Close()
			conn.Recv() // the OFFER
			conn.Recv() // nothing more comes; returns when the client hangs up
		}
	}()

	cmd := exec.Command(migd, "run", "-addr", l.Addr().String(), "-machine", "dec5000",
		"-program", "testdata/series.mc", "-after-polls", "100", "-session-timeout", "500ms")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 23 {
			t.Errorf("migd run: %v, want exit code 23\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("migd run still waiting on a silent daemon after 30s\n%s", out.String())
	}
	if !strings.Contains(out.String(), "rolled back: process completed locally with exit code 23") {
		t.Errorf("output lacks the rolled-back line:\n%s", out.String())
	}
}
