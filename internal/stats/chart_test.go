package stats

import (
	"strings"
	"testing"
)

func TestChartRendersPoints(t *testing.T) {
	c := &Chart{
		Title:  "speedup vs registers",
		XLabel: "phys regs",
		YLabel: "speedup %",
		Series: []Series{{
			Name:   "elim",
			Points: []Point{{40, 5.2}, {64, 1.1}, {128, -0.7}},
		}},
	}
	out := c.String()
	if !strings.Contains(out, "speedup vs registers") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("missing markers")
	}
	if !strings.Contains(out, "5.2") || !strings.Contains(out, "-0.7") {
		t.Errorf("missing y-axis range labels:\n%s", out)
	}
	if !strings.Contains(out, "40") || !strings.Contains(out, "128") {
		t.Errorf("missing x-axis range labels:\n%s", out)
	}
	if !strings.Contains(out, "x: phys regs") {
		t.Error("missing axis caption")
	}
}

func TestChartMultipleSeriesLegend(t *testing.T) {
	c := &Chart{
		Series: []Series{
			{Name: "cfi", Points: []Point{{1, 90}, {2, 95}}},
			{Name: "counter", Points: []Point{{1, 60}, {2, 62}}},
		},
	}
	out := c.String()
	if !strings.Contains(out, "* cfi") || !strings.Contains(out, "o counter") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	c := &Chart{Title: "empty"}
	if out := c.String(); !strings.Contains(out, "no data") {
		t.Errorf("empty chart = %q", out)
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	// Single point: both ranges degenerate; must not divide by zero.
	c := &Chart{Series: []Series{{Points: []Point{{5, 5}}}}}
	out := c.String()
	if !strings.Contains(out, "*") {
		t.Errorf("single point not plotted:\n%s", out)
	}
}

// TestChartDegenerateScales draws charts whose scale has no usable span:
// values equal at a magnitude where x+1 == x, and values spanning more
// than the largest float64. Each renders with its points in the first
// column or row instead of indexing outside the grid.
func TestChartDegenerateScales(t *testing.T) {
	for _, tc := range []struct {
		name   string
		points []Point
	}{
		{"equal x past 2^53", []Point{{1e17, 0}, {1e17, 1}}},
		{"x span past MaxFloat64", []Point{{-1e308, 0}, {1e308, 1}}},
		{"equal y past 2^53", []Point{{0, 1e17}, {1, 1e17}}},
		{"y span past MaxFloat64", []Point{{0, -1e308}, {1, 1e308}}},
	} {
		c := &Chart{Width: 10, Height: 4, Series: []Series{{Points: tc.points}}}
		if out := c.String(); !strings.Contains(out, "|*") {
			t.Errorf("%s: no point in the first column:\n%s", tc.name, out)
		}
	}
}

func TestChartExtremesLandOnEdges(t *testing.T) {
	c := &Chart{Width: 20, Height: 5, Series: []Series{{
		Points: []Point{{0, 0}, {10, 10}},
	}}}
	lines := strings.Split(c.String(), "\n")
	top := lines[0]
	if top[len(top)-1] != '*' {
		t.Errorf("max point not at top-right: %q", top)
	}
	bottom := lines[4]
	if !strings.Contains(bottom, "|*") {
		t.Errorf("min point not at bottom-left: %q", bottom)
	}
}
