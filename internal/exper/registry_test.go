package exper

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRegistry is the contract between the binary and its documentation:
// every registered experiment runs at quick size, passes the same gate CI
// runs through migbench, and prints a table; names are unique; and the set
// of names equals the set DESIGN.md §4's regeneration column and README's
// `-exp` values line document.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range Experiments {
		if seen[x.Name] {
			t.Errorf("experiment %q registered twice", x.Name)
		}
		seen[x.Name] = true
		t.Run(x.Name, func(t *testing.T) {
			res, err := x.Run(quick)
			if err != nil {
				t.Fatal(err)
			}
			if err := x.Gate(res); err != nil {
				t.Errorf("gate: %v", err)
			}
			var buf bytes.Buffer
			x.Print(&buf, res)
			if strings.TrimSpace(buf.String()) == "" {
				t.Error("Print wrote nothing")
			}
			if x.Title == "" {
				t.Error("no title")
			}
		})
	}

	design := readDoc(t, "../../DESIGN.md")
	start := strings.Index(design, "\n## 4. ")
	end := strings.Index(design, "\n## 5. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	checkNames(t, "DESIGN.md §4", regexp.MustCompile("-exp ([a-z0-9]+)").FindAllStringSubmatch(design[start:end], -1))

	readme := readDoc(t, "../../README.md")
	const marker = "`-exp` values:"
	at := strings.Index(readme, marker)
	if at < 0 {
		t.Fatalf("README.md has no %q line", marker)
	}
	line, _, _ := strings.Cut(readme[at+len(marker):], "\n\n")
	checkNames(t, "README.md -exp line", regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(line, -1))
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkNames holds the names a document mentions to the registry's.
func checkNames(t *testing.T, where string, matches [][]string) {
	t.Helper()
	set := map[string]bool{}
	for _, m := range matches {
		set[m[1]] = true
	}
	var got []string
	for name := range set {
		got = append(got, name)
	}
	want := Names()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s names experiments\n  %v\nthe registry has\n  %v", where, got, want)
	}
}

// TestSelect: "all" is the registry, a name is one entry, and a misspelt
// name is an error that lists the valid ones (migbench exits 2 on it)
// instead of an empty selection that runs nothing and passes.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	one, err := Select("live")
	if err != nil || len(one) != 1 || one[0].Name != "live" {
		t.Fatalf("Select(live) = %v, %v", one, err)
	}
	got, err := Select("hotpat")
	if err == nil {
		t.Fatalf("Select(hotpat) selected %d experiments, want an error", len(got))
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the valid experiment %q", err, name)
		}
	}
}

// TestAblationsReportCarriesAllGroups: BENCH_ablations.json used to hold
// only the group that ran last. Decode the report the way a reader of the
// artifact would and find D1, D2 and D3.
func TestAblationsReportCarriesAllGroups(t *testing.T) {
	sel, err := Select("ablations")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel[0].Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(obs.NewReport("ablations", res))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Rows map[string][]AblationRow `json:"rows"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	for _, group := range []string{"d1", "d2", "d3"} {
		if len(rep.Rows[group]) == 0 {
			t.Errorf("report has no %s rows: %s", group, b)
		}
	}
}
