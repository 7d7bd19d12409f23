package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/minic"
	"repro/internal/snapshot"
	"repro/internal/xdr"
)

// resumeAtEveryPoll migrates prog from src to dst at each of its first
// polls in turn and requires every run to end as an unmigrated run on dst
// does. It returns how many polls it migrated at.
func resumeAtEveryPoll(t *testing.T, prog *minic.Program, src, dst *arch.Machine) int {
	t.Helper()
	wantCode, wantOut := reference(t, prog, dst)
	n := 1
	for ; ; n++ {
		code, out, migrated := runMigrating(t, prog, src, dst, n)
		if !migrated {
			break
		}
		if code != wantCode || out != wantOut {
			t.Errorf("%s->%s, poll %d: code=%d out=%q, want %d %q", src.Name, dst.Name, n, code, out, wantCode, wantOut)
		}
	}
	return n - 1
}

// TestResumeAtPollBeforeContinue resumes at a poll that a continue follows
// in a for body: the loop's step runs exactly once after the resumed body,
// so the step counter and the sum come out as in an unmigrated run.
func TestResumeAtPollBeforeContinue(t *testing.T) {
	prog, err := minic.Compile(`
		int steps;
		int step(int i) { steps++; return i + 1; }
		int main() {
			int i, s;
			s = 0;
			steps = 0;
			for (i = 0; i < 10; i = step(i)) {
				migrate_here();
				if (i % 3 == 0) continue;
				s += i;
			}
			return s * 100 + steps; /* 27 * 100 + 10 */
		}
	`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := reference(t, prog, arch.SPARC20); want != 2710 {
		t.Fatalf("reference = %d, want 2710", want)
	}
	if n := resumeAtEveryPoll(t, prog, arch.DEC5000, arch.SPARC20); n != 10 {
		t.Errorf("migrated at %d polls, want 10", n)
	}
}

// TestResumeInNestedLoops resumes at polls in every level of nested for,
// while and do-while loops, in two nesting orders.
func TestResumeInNestedLoops(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		polls     int
	}{
		{"for-while-do", `
			int main() {
				int i, j, k, acc;
				acc = 1;
				for (i = 0; i < 3; i++) {
					j = 0;
					while (j < 3) {
						k = 0;
						do {
							migrate_here();
							acc = (acc * 7 + i * 9 + j * 3 + k) % 100003;
							k++;
						} while (k < 2);
						migrate_here();
						j++;
					}
					migrate_here();
				}
				return acc % 251;
			}`, 3*3*2 + 3*3 + 3},
		{"do-for-while", `
			int main() {
				int i, j, k, acc;
				acc = 1;
				i = 0;
				do {
					for (j = 0; j < 3; j++) {
						k = 0;
						while (k < 2) {
							migrate_here();
							acc = (acc * 5 + i * 11 + j * 2 + k) % 100003;
							k++;
						}
						migrate_here();
					}
					migrate_here();
					i++;
				} while (i < 2);
				return acc % 251;
			}`, 2*3*2 + 2*3 + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := minic.Compile(tc.src, minic.PollPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			if n := resumeAtEveryPoll(t, prog, arch.I386, arch.SPARCV9); n != tc.polls {
				t.Errorf("migrated at %d polls, want %d", n, tc.polls)
			}
		})
	}
}

// TestResumeAtConvertingCallSite resumes inside callees whose results the
// call site converts on assignment: int to double, int to char and long to
// int. The completed call stores through the conversion of the target's
// type, on the destination machine.
func TestResumeAtConvertingCallSite(t *testing.T) {
	prog, err := minic.Compile(`
		int fi(int a) { migrate_here(); return a * 3 + 1; }
		long fl(long a) { migrate_here(); return a * 65536 - 7; }
		int main() {
			double d;
			char c;
			int i, n;
			for (i = 0; i < 4; i++) {
				d = fi(i * 5 - 3);
				c = fi(i * 50);
				n = fl(i * 9000 - 10000);
				printf("%d %d %d\n", (int)(d * 4.0 + 0.5 * d), c, n);
			}
			return c + 128;
		}
	`, minic.PollPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*arch.Machine{arch.DEC5000, arch.AMD64} {
		if n := resumeAtEveryPoll(t, prog, src, arch.SPARC20); n != 12 {
			t.Errorf("%s: migrated at %d polls, want 12", src.Name, n)
		}
	}
	if _, out := reference(t, prog, arch.SPARC20); out != "-36 1 -655360007\n31 -105 -65536007\n99 45 524287993\n166 -61 1114111993\n" {
		t.Errorf("reference output %q", out)
	}
}

// chainSrc stops in work, called from main's third site; main's first site
// is a poll and its second calls other.
const chainSrc = `
	int other(int x) { migrate_here(); return x + 1; }
	int work(int x) { migrate_here(); return x * 2; }
	int main() {
		int x;
		migrate_here();
		x = 1;
		x = other(x);
		x = work(x);
		return x;
	}`

// withOuterSite returns a copy of state whose outermost frame is stopped at
// site instead; the execution state starts at state[off:].
func withOuterSite(t *testing.T, state []byte, off, site int) []byte {
	t.Helper()
	dec := xdr.NewDecoder(state[off:])
	if _, err := dec.Uint32(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.String(); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), state...)
	binary.BigEndian.PutUint32(out[off+dec.Offset():], uint32(site))
	return out
}

// TestRestoreRejectsInconsistentFrameChain forges execution states whose
// frames do not form a call chain. Each must fail the restore with
// ErrMismatch, before the process could run: an outer frame stopped at a
// call to another function than the next frame's, or at a poll point, and
// an innermost frame stopped at a call.
func TestRestoreRejectsInconsistentFrameChain(t *testing.T) {
	p := stopPaused(t, chainSrc, arch.DEC5000)
	prog := p.Prog
	for polls := 1; polls < 3; polls++ {
		if res, err := p.ResumeRun(); err != nil || !res.Migrated {
			t.Fatalf("resume to poll %d: %v", polls+1, err)
		}
	}
	v1, err := p.Recapture()
	if err != nil {
		t.Fatal(err)
	}
	secs, release, err := p.Sections()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := RestoreProcess(prog, arch.SPARC20, v1); err != nil {
		t.Fatalf("unforged state: %v", err)
	}
	// One frame, main, stopped at its call to work.
	innermostAtCall := xdr.NewEncoder(64)
	innermostAtCall.PutUint32(execMagic)
	innermostAtCall.PutUint32(1)
	innermostAtCall.PutString("main")
	innermostAtCall.PutUint32(3)
	forged := append([]snapshot.Section{{Kind: snapshot.KindExec, Body: withOuterSite(t, secs[0].Body, 0, 2)}}, secs[1:]...)
	for _, tc := range []struct {
		name  string
		state []byte
	}{
		{"v1, outer frame calls other", withOuterSite(t, v1, 4, 2)},
		{"v1, outer frame at a poll", withOuterSite(t, v1, 4, 1)},
		{"v1, innermost frame at a call", innermostAtCall.Bytes()},
		{"sectioned, outer frame calls other", snapshot.Encode(forged)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RestoreProcess(prog, arch.SPARC20, tc.state); !errors.Is(err, collect.ErrMismatch) {
				t.Errorf("err = %v, want ErrMismatch", err)
			}
		})
	}
	t.Run("sections applied, outer frame calls other", func(t *testing.T) {
		q, err := NewProcess(prog, arch.SPARC20)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.NewRestore().Apply(forged, nil); !errors.Is(err, collect.ErrMismatch) {
			t.Errorf("err = %v, want ErrMismatch", err)
		}
	})
}

// TestUsualArithmeticConversions pins what the VM computes for comparisons
// and compound assignments between signed and unsigned char, short, int
// and long, on an ILP32 and an LP64 machine. Each line is one operator over
// all 64 ordered pairs of types, first operand major: -7 against 2, except
// in the == line, which compares -1 converted to each type.
//
// Where these differ from ISO C it is recorded in ROADMAP.md: on ILP32,
// long against unsigned int converts at long, not unsigned long. A compound
// shift computes at the promoted left operand, as C11 6.5.7p3 has it.
func TestUsualArithmeticConversions(t *testing.T) {
	names := []string{"signed char", "unsigned char", "short", "unsigned short", "int", "unsigned int", "long", "unsigned long"}
	src := "int main() {\n"
	for i, n := range names {
		src += fmt.Sprintf("\t%s a%d, b%d, m%d;\n", n, i, i, i)
	}
	for i := range names {
		src += fmt.Sprintf("\ta%d = -7; b%d = 2; m%d = -1;\n", i, i, i)
	}
	line := func(each func(i, j int) string) {
		for i := range names {
			for j := range names {
				src += "\t" + each(i, j) + "\n"
			}
		}
		src += "\tprintf(\"\\n\");\n"
	}
	line(func(i, j int) string { return fmt.Sprintf(`printf("%%d", a%d < b%d);`, i, j) })
	line(func(i, j int) string { return fmt.Sprintf(`printf("%%d", m%d == m%d);`, i, j) })
	for _, op := range []string{"/=", "%=", ">>=", "-="} {
		line(func(i, j int) string {
			return fmt.Sprintf(`a%d = -7; a%d %s b%d; printf("%%d ", a%d);`, i, i, op, j, i)
		})
	}
	src += "\treturn 0;\n}\n"
	for _, tc := range []struct {
		m    *arch.Machine
		want string
	}{
		{arch.DEC5000, usualConversionsILP32},
		{arch.AMD64, usualConversionsLP64},
	} {
		if _, out := run(t, src, tc.m, minic.PollPolicy{}); out != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.m.Name, out, tc.want)
		}
	}
}

const usualConversionsILP32 = "" +
	"1111101000000000111110100000000011111010000000101111111000000000\n" +
	"1010111101000000101011110001000010101111101011111010111110101111\n" +
	"-3 -3 -3 -3 -3 -4 -3 -4 " +
	"124 124 124 124 124 124 124 124 " +
	"-3 -3 -3 -3 -3 -4 -3 -4 " +
	"32764 32764 32764 32764 32764 32764 32764 32764 " +
	"-3 -3 -3 -3 -3 2147483644 -3 2147483644 " +
	"2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 4294967293 2147483644 " +
	"-3 -3 -3 -3 -3 -3 -3 2147483644 " +
	"2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 \n" +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 1 1 " +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 1 1 " +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 4294967295 1 " +
	"-1 -1 -1 -1 -1 -1 -1 1 " +
	"1 1 1 1 1 1 1 1 \n" +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"62 62 62 62 62 62 62 62 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"16382 16382 16382 16382 16382 16382 16382 16382 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 \n" +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"247 247 247 247 247 247 247 247 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"65527 65527 65527 65527 65527 65527 65527 65527 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 \n"

const usualConversionsLP64 = "" +
	"1111101000000000111110100000000011111010000000001111111000000000\n" +
	"1010111101000000101011110001000010101111101011001010101110101011\n" +
	"-3 -3 -3 -3 -3 -4 -3 -4 " +
	"124 124 124 124 124 124 124 124 " +
	"-3 -3 -3 -3 -3 -4 -3 -4 " +
	"32764 32764 32764 32764 32764 32764 32764 32764 " +
	"-3 -3 -3 -3 -3 2147483644 -3 -4 " +
	"2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 2147483644 " +
	"-3 -3 -3 -3 -3 -3 -3 9223372036854775804 " +
	"9223372036854775804 9223372036854775804 9223372036854775804 9223372036854775804 9223372036854775804 9223372036854775804 9223372036854775804 9223372036854775804 \n" +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 1 1 " +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 1 1 " +
	"-1 -1 -1 -1 -1 1 -1 1 " +
	"1 1 1 1 1 1 1 1 " +
	"-1 -1 -1 -1 -1 -1 -1 1 " +
	"1 1 1 1 1 1 1 1 \n" +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"62 62 62 62 62 62 62 62 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"16382 16382 16382 16382 16382 16382 16382 16382 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 1073741822 " +
	"-2 -2 -2 -2 -2 -2 -2 -2 " +
	"4611686018427387902 4611686018427387902 4611686018427387902 4611686018427387902 4611686018427387902 4611686018427387902 4611686018427387902 4611686018427387902 \n" +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"247 247 247 247 247 247 247 247 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"65527 65527 65527 65527 65527 65527 65527 65527 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 4294967287 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 " +
	"-9 -9 -9 -9 -9 -9 -9 -9 \n"
