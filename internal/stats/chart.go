package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of a chart.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Chart renders one or more series as an ASCII line chart — the closest a
// terminal gets to the paper's figures. Each series is drawn with its own
// marker; x positions are scaled linearly (pass log-transformed x values
// for log-scale sweeps).
type Chart struct {
	Title  string
	YLabel string
	XLabel string
	Width  int // plot columns (default 56)
	Height int // plot rows (default 12)
	Series []Series
}

var chartMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// String renders the chart.
func (c *Chart) String() string {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 56
	}
	if h <= 0 {
		h = 12
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range c.Series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
			total++
		}
	}
	if total == 0 {
		return c.Title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	// cell scales v from [lo, hi] onto n cells. A span that is zero (equal
	// values past float64's integer precision, where lo+1 == lo) or not
	// finite (wider than the largest float64) puts every value in the
	// first cell, and any other result is clamped to the grid.
	cell := func(v, lo, hi float64, n int) int {
		span := hi - lo
		if span == 0 || math.IsInf(span, 0) || math.IsNaN(span) {
			return 0
		}
		return min(max(int(math.Round((v-lo)/span*float64(n-1))), 0), n-1)
	}
	for si, s := range c.Series {
		mark := chartMarkers[si%len(chartMarkers)]
		for _, p := range s.Points {
			grid[h-1-cell(p.Y, minY, maxY, h)][cell(p.X, minX, maxX, w)] = mark
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yHi := fmt.Sprintf("%.3g", maxY)
	yLo := fmt.Sprintf("%.3g", minY)
	pad := len(yHi)
	if len(yLo) > pad {
		pad = len(yLo)
	}
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", pad)
		if r == 0 {
			label = fmt.Sprintf("%*s", pad, yHi)
		}
		if r == h-1 {
			label = fmt.Sprintf("%*s", pad, yLo)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", pad), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*.3g%*.3g\n", strings.Repeat(" ", pad), w/2, minX, w-w/2, maxX)
	if len(c.Series) > 1 || c.Series[0].Name != "" {
		var legend []string
		for si, s := range c.Series {
			legend = append(legend, fmt.Sprintf("%c %s", chartMarkers[si%len(chartMarkers)], s.Name))
		}
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", pad), strings.Join(legend, "   "))
	}
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", pad), c.XLabel, c.YLabel)
	}
	return b.String()
}
