package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestLinearFitExact(t *testing.T) {
	var s Series
	for x := 1.0; x <= 10; x++ {
		s.Add(x, 3*x+2)
	}
	f := s.LinearFit()
	if math.Abs(f.Slope-3) > 1e-9 || math.Abs(f.Intercept-2) > 1e-9 {
		t.Errorf("fit = %+v", f)
	}
	if f.R2 < 0.999999 {
		t.Errorf("R2 = %g", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	var s Series
	noise := []float64{0.1, -0.2, 0.05, -0.1, 0.15, 0.0, -0.05, 0.2}
	for i, n := range noise {
		x := float64(i + 1)
		s.Add(x, 5*x+n)
	}
	f := s.LinearFit()
	if math.Abs(f.Slope-5) > 0.1 {
		t.Errorf("slope = %g", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %g", f.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	var s Series
	if f := s.LinearFit(); f.Slope != 0 {
		t.Error("empty series fit not zero")
	}
	s.Add(1, 1)
	if f := s.LinearFit(); f.Slope != 0 {
		t.Error("single point fit not zero")
	}
	// Vertical series (all same x).
	s.Add(1, 2)
	if f := s.LinearFit(); f.Slope != 0 {
		t.Error("degenerate x fit not zero")
	}
}

func TestGrowthExponent(t *testing.T) {
	var lin, quad, nlogn Series
	for x := 1.0; x <= 64; x *= 2 {
		lin.Add(x, 7*x)
		quad.Add(x, 0.5*x*x)
		nlogn.Add(x, x*math.Log2(x+1))
	}
	if k := lin.GrowthExponent(); math.Abs(k-1) > 0.05 {
		t.Errorf("linear exponent = %g", k)
	}
	if k := quad.GrowthExponent(); math.Abs(k-2) > 0.05 {
		t.Errorf("quadratic exponent = %g", k)
	}
	if k := nlogn.GrowthExponent(); k < 1.05 || k > 1.6 {
		t.Errorf("n log n exponent = %g, expected between 1 and 2", k)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "Timing results (in seconds)",
		Headers: []string{"Programs", "Collect", "Tx", "Restore"},
	}
	tbl.AddRow("Linpack 1000x1000", 0.85, 1.4, 0.91)
	tbl.AddRow("bitonic 100000", 250*time.Millisecond, 0.3, 0.2)
	out := tbl.String()
	for _, want := range []string{"Programs", "Linpack", "0.8500", "0.2500", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
