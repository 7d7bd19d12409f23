package minic

import (
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string, policy PollPolicy) *Program {
	t.Helper()
	prog, err := Compile(src, policy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func liveNames(s *Site) []string {
	var out []string
	for _, v := range s.Live {
		out = append(out, v.Name)
	}
	return out
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func TestLoopPollInsertion(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int i, s;
			s = 0;
			for (i = 0; i < 10; i++) { s += i; }
			while (s > 0) s--;
			return s;
		}
	`, DefaultPolicy)
	main := prog.Func("main")
	if !main.Migratory {
		t.Fatal("main with loops should be migratory under the default policy")
	}
	polls := 0
	for _, s := range main.Sites {
		if s.Call == nil {
			polls++
		}
	}
	if polls != 2 {
		t.Errorf("poll points = %d, want 2 (one per loop)", polls)
	}
}

func TestFunctionEntryPolicy(t *testing.T) {
	prog := mustCompile(t, `
		int f(int x) { return x + 1; }
		int main() { int r; r = f(1); return r; }
	`, PollPolicy{FunctionEntry: true})
	if !prog.Func("f").Migratory || !prog.Func("main").Migratory {
		t.Error("entry policy should make all functions migratory")
	}
}

func TestPolicyFunctionFilter(t *testing.T) {
	prog := mustCompile(t, `
		int f(int x) { int i; for (i = 0; i < x; i++) {} return x; }
		int g(int x) { int i; for (i = 0; i < x; i++) {} return x; }
		int main() { int a, b; a = f(1); b = g(1); return a + b; }
	`, PollPolicy{Loops: true, Funcs: []string{"f"}})
	if !prog.Func("f").Migratory {
		t.Error("f should be migratory")
	}
	if prog.Func("g").Migratory {
		t.Error("g should not be migratory")
	}
}

func TestMigratoryPropagation(t *testing.T) {
	prog := mustCompile(t, `
		void leaf(void) { migrate_here(); }
		void mid(void) { leaf(); }
		void top(void) { mid(); }
		void unrelated(void) { }
		int main() { top(); return 0; }
	`, PollPolicy{})
	for _, name := range []string{"leaf", "mid", "top", "main"} {
		if !prog.Func(name).Migratory {
			t.Errorf("%s should be migratory", name)
		}
	}
	if prog.Func("unrelated").Migratory {
		t.Error("unrelated should not be migratory")
	}
}

func TestCallSitesGetSites(t *testing.T) {
	prog := mustCompile(t, `
		int work(int n) { migrate_here(); return n * 2; }
		int main() {
			int x;
			work(1);
			x = work(2);
			return x;
		}
	`, PollPolicy{})
	main := prog.Func("main")
	calls := 0
	for _, s := range main.Sites {
		if s.Call != nil {
			calls++
		}
	}
	if calls != 2 {
		t.Errorf("call sites in main = %d, want 2", calls)
	}
	work := prog.Func("work")
	if len(work.Sites) != 1 || work.Sites[0].Call != nil {
		t.Errorf("work sites = %+v", work.Sites)
	}
}

func TestNonResumablePositionsRejected(t *testing.T) {
	cases := []string{
		`int f(void) { migrate_here(); return 1; }
		 int main() { int x; x = f() + 1; return x; }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { if (f()) {} return 0; }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { return f(); }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { int x = f(); return x; }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { int a[3]; a[0] = f(); return 0; }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { int i; for (i = f(); i < 3; i++) {} return 0; }`,
		`int f(void) { migrate_here(); return 1; }
		 int main() { int x; x = f() + f(); return 0; }`,
	}
	for i, src := range cases {
		_, err := Compile(src, PollPolicy{})
		if err == nil {
			t.Errorf("case %d: non-resumable migratory call accepted", i)
		} else if !strings.Contains(err.Error(), "resum") {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

func TestResumablePositionsAccepted(t *testing.T) {
	mustCompile(t, `
		int f(int n) { migrate_here(); return n; }
		int main() {
			int x;
			f(1);
			x = f(2);
			x = (f(3));
			return x;
		}
	`, PollPolicy{})
}

func TestSiteChains(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int i, j;
			for (i = 0; i < 3; i++) {
				if (i > 0) {
					for (j = 0; j < 3; j++) {
						migrate_here();
					}
				}
			}
			return 0;
		}
	`, PollPolicy{})
	main := prog.Func("main")
	if len(main.Sites) != 1 {
		t.Fatalf("sites = %d", len(main.Sites))
	}
	chain := main.Sites[0].Chain
	// body block -> for(i) -> body block -> if -> then-block(or for) ->
	// for(j) -> body block -> poll. At minimum the chain must start at
	// the function body and end at the poll statement.
	if chain[0] != Stmt(main.Body) {
		t.Error("chain must start at the function body")
	}
	if chain[len(chain)-1] != main.Sites[0].Stmt {
		t.Error("chain must end at the site statement")
	}
	if len(chain) < 6 {
		t.Errorf("chain too short: %d", len(chain))
	}
	// Each element must be a child of the previous (checked structurally
	// by walking types).
	for i := 1; i < len(chain); i++ {
		if !isChildOf(chain[i-1], chain[i]) {
			t.Errorf("chain element %d is not a child of its predecessor", i)
		}
	}
}

func isChildOf(parent, child Stmt) bool {
	found := false
	switch p := parent.(type) {
	case *Block:
		for _, s := range p.Stmts {
			if s == child {
				found = true
			}
		}
	case *If:
		found = p.Then == child || p.Else == child
	case *While:
		found = p.Body == child
	case *For:
		found = p.Body == child
	}
	return found
}

func TestLiveSetsAtPolls(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int used_after, dead_after, loop_var;
			used_after = 1;
			dead_after = 2;
			for (loop_var = 0; loop_var < dead_after; loop_var++) {
				migrate_here();
			}
			return used_after;
		}
	`, PollPolicy{})
	main := prog.Func("main")
	if len(main.Sites) != 1 {
		t.Fatalf("sites = %d", len(main.Sites))
	}
	names := liveNames(main.Sites[0])
	if !hasName(names, "used_after") {
		t.Errorf("used_after should be live at the poll: %v", names)
	}
	if !hasName(names, "loop_var") {
		t.Errorf("loop_var should be live at the poll: %v", names)
	}
	if !hasName(names, "dead_after") {
		// dead_after is used by the loop condition, so it is live.
		t.Errorf("dead_after is used by the loop condition: %v", names)
	}
}

func TestLiveSetExcludesDeadVariable(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int dead, alive;
			dead = 42;
			alive = 1;
			dead = 0;
			while (alive < 10) {
				migrate_here();
				alive++;
			}
			return alive;
		}
	`, PollPolicy{})
	site := prog.Func("main").Sites[0]
	names := liveNames(site)
	if hasName(names, "dead") {
		t.Errorf("dead variable in live set: %v", names)
	}
	if !hasName(names, "alive") {
		t.Errorf("alive variable missing: %v", names)
	}
}

func TestLiveSetAddressTakenAlwaysLive(t *testing.T) {
	prog := mustCompile(t, `
		int deref(int *p) { return *p; }
		int main() {
			int x, y;
			int *p;
			x = 5;
			p = &x;
			y = deref(p);
			while (y) {
				migrate_here();
				y--;
			}
			return 0;
		}
	`, PollPolicy{})
	site := prog.Func("main").Sites[0]
	names := liveNames(site)
	if !hasName(names, "x") {
		t.Errorf("address-taken x must be conservatively live: %v", names)
	}
}

func TestLiveSetAtCallSite(t *testing.T) {
	prog := mustCompile(t, `
		int f(int n) { migrate_here(); return n; }
		int main() {
			int target, keep, unused;
			keep = 7;
			unused = 9;
			target = f(keep);
			return target + keep;
		}
	`, PollPolicy{})
	var callSite *Site
	for _, s := range prog.Func("main").Sites {
		if s.Call != nil {
			callSite = s
		}
	}
	if callSite == nil {
		t.Fatal("no call site")
	}
	names := liveNames(callSite)
	if !hasName(names, "keep") {
		t.Errorf("keep must be live at call site: %v", names)
	}
	if hasName(names, "target") {
		t.Errorf("target is defined by the call statement and must not be in its live set: %v", names)
	}
	if hasName(names, "unused") {
		t.Errorf("unused must not be live: %v", names)
	}
}

func TestDoWhileLiveness(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int n, acc;
			n = 10;
			acc = 0;
			do {
				migrate_here();
				acc += n;
				n--;
			} while (n > 0);
			return acc;
		}
	`, PollPolicy{})
	names := liveNames(prog.Func("main").Sites[0])
	if !hasName(names, "n") || !hasName(names, "acc") {
		t.Errorf("do-while live set: %v", names)
	}
}

func TestExplicitPollInLoopNotDoubled(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int i;
			for (i = 0; i < 3; i++) {
				migrate_here();
				i += 0;
			}
			return 0;
		}
	`, DefaultPolicy)
	if n := len(prog.Func("main").Sites); n != 1 {
		t.Errorf("sites = %d, want 1 (no doubled poll at loop head)", n)
	}
}

func TestDumpSites(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int i;
			for (i = 0; i < 3; i++) { migrate_here(); }
			return i;
		}
	`, PollPolicy{})
	out := DumpSites(prog)
	if !strings.Contains(out, "function main") || !strings.Contains(out, "site 1 (poll)") {
		t.Errorf("dump output:\n%s", out)
	}
}

func TestSiteByID(t *testing.T) {
	prog := mustCompile(t, `
		int main() {
			int i;
			for (i = 0; i < 2; i++) { migrate_here(); }
			return 0;
		}
	`, PollPolicy{})
	fn := prog.Func("main")
	if fn.SiteByID(1) == nil {
		t.Error("site 1 missing")
	}
	if fn.SiteByID(99) != nil {
		t.Error("phantom site")
	}
}
