// Package plot renders simple ASCII charts — enough to eyeball the
// reproduction's figures in a terminal without leaving the repository.
package plot

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named curve.
type Series struct {
	Name string
	X, Y []float64
}

// glyphs mark successive series.
var glyphs = []byte{'*', 'o', '+', 'x', '#'}

// Options tunes rendering.
type Options struct {
	// LogY plots log10(y); non-positive points are dropped.
	LogY bool
}

// RenderWithOptions draws the series onto a width×height character
// canvas with axis annotations.
func RenderWithOptions(w io.Writer, title string, series []Series, width, height int, opt Options) error {
	if opt.LogY {
		logged := make([]Series, 0, len(series))
		for _, s := range series {
			n := len(s.X)
			if len(s.Y) < n {
				n = len(s.Y)
			}
			ls := Series{Name: s.Name + " (log10)"}
			for i := 0; i < n; i++ {
				if s.Y[i] > 0 {
					ls.X = append(ls.X, s.X[i])
					ls.Y = append(ls.Y, math.Log10(s.Y[i]))
				}
			}
			if len(ls.X) > 0 {
				logged = append(logged, ls)
			}
		}
		series = logged
	}
	return render(w, title, series, width, height)
}

func render(w io.Writer, title string, series []Series, width, height int) error {
	if width < 20 || height < 5 {
		return fmt.Errorf("plot: canvas %dx%d too small", width, height)
	}
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		n := len(s.X)
		if len(s.Y) < n {
			n = len(s.Y)
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.X[i], 0) || math.IsInf(s.Y[i], 0) {
				continue
			}
			points++
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if points == 0 {
		return fmt.Errorf("plot: no finite points")
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}

	canvas := make([][]byte, height)
	for r := range canvas {
		canvas[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		n := len(s.X)
		if len(s.Y) < n {
			n = len(s.Y)
		}
		for i := 0; i < n; i++ {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.X[i], 0) || math.IsInf(s.Y[i], 0) {
				continue
			}
			col := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((s.Y[i]-ymin)/(ymax-ymin)*float64(height-1))
			canvas[row][col] = g
		}
	}

	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	for r, line := range canvas {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%8s  %-10.4g%s%10.4g\n", "",
		xmin, strings.Repeat(" ", max(0, width-20)), xmax); err != nil {
		return err
	}
	var legend []string
	for si, s := range series {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("series %d", si+1)
		}
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], name))
	}
	_, err := fmt.Fprintf(w, "%10s%s\n", "", strings.Join(legend, "   "))
	return err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ParseTSV interprets a TSV table (header + rows) as chart series:
// column 1 is x and every further fully-numeric, non-constant column is
// a y series named by its header. Constant columns (thresholds,
// counters) are skipped when other series exist.
func ParseTSV(tsv string) ([]Series, error) {
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("plot: no rows")
	}
	headers := strings.Split(lines[0], "\t")
	if len(headers) < 2 {
		return nil, fmt.Errorf("plot: need ≥2 columns")
	}
	cols := make([][]float64, len(headers))
	dropped := make([]bool, len(headers))
	for _, line := range lines[1:] {
		fields := strings.Split(line, "\t")
		for c := range headers {
			if dropped[c] {
				continue
			}
			if c >= len(fields) {
				dropped[c] = true
				continue
			}
			f, err := strconv.ParseFloat(fields[c], 64)
			if err != nil {
				dropped[c] = true
				continue
			}
			cols[c] = append(cols[c], f)
		}
	}
	if dropped[0] || len(cols[0]) != len(lines)-1 {
		return nil, fmt.Errorf("plot: x column not numeric")
	}
	var series []Series
	for c := 1; c < len(headers); c++ {
		if dropped[c] || len(cols[c]) != len(cols[0]) {
			continue
		}
		constant := true
		for _, v := range cols[c][1:] {
			//pablint:ignore floatcmp constant-column pruning wants exact repeats of the same parsed text, not numeric closeness
			if v != cols[c][0] {
				constant = false
				break
			}
		}
		if constant && len(headers) > 2 {
			continue
		}
		series = append(series, Series{Name: headers[c], X: cols[0], Y: cols[c]})
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("plot: no numeric y columns")
	}
	return series, nil
}
