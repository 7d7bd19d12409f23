// Package stats provides the small measurement toolkit used by the
// experiment harness: series of (x, y) observations, least-squares fits for
// verifying the scaling claims of the paper's Section 4.2, and plain-text
// table rendering in the style of the paper's Table 1.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Point is one observation in a series.
type Point struct {
	X float64
	Y float64
}

// Series is an ordered set of observations with a name, such as
// "data collection time vs data size".
type Series struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Fit holds a least-squares linear fit y = Slope*x + Intercept with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the least-squares line through the series. It returns
// a zero fit for fewer than two points.
func (s *Series) LinearFit() Fit {
	n := float64(len(s.Points))
	if n < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy float64
	for _, p := range s.Points {
		sx += p.X
		sy += p.Y
		sxx += p.X * p.X
		sxy += p.X * p.Y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for _, p := range s.Points {
		ssTot += (p.Y - meanY) * (p.Y - meanY)
		pred := slope*p.X + intercept
		ssRes += (p.Y - pred) * (p.Y - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// GrowthExponent estimates k in y ~ x^k by fitting log y against log x.
// Points with non-positive coordinates are skipped.
func (s *Series) GrowthExponent() float64 {
	var logs Series
	for _, p := range s.Points {
		if p.X > 0 && p.Y > 0 {
			logs.Add(math.Log(p.X), math.Log(p.Y))
		}
	}
	return logs.LinearFit().Slope
}

// Table renders aligned plain-text tables, in the visual style of the
// paper's timing tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells, formatting each with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.4f", v.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
