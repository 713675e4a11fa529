package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRenderBasics(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Name: "line", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}}
	if err := RenderWithOptions(&buf, "test", []Series{s}, 40, 10, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "* line") {
		t.Error("legend missing")
	}
	if strings.Count(out, "\n") < 12 {
		t.Errorf("unexpected line count:\n%s", out)
	}
	// An increasing line should put a glyph in the top row and bottom row.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "*") {
		t.Error("top row should contain the max point")
	}
}

func TestRenderMultiSeriesGlyphs(t *testing.T) {
	var buf bytes.Buffer
	a := Series{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}}
	b := Series{Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}}
	if err := RenderWithOptions(&buf, "", []Series{a, b}, 30, 8, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("both glyphs should appear")
	}
}

func TestRenderDegenerate(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderWithOptions(&buf, "", nil, 40, 10, Options{}); err == nil {
		t.Error("no series should error")
	}
	if err := RenderWithOptions(&buf, "", []Series{{X: []float64{1}, Y: []float64{2}}}, 5, 2, Options{}); err == nil {
		t.Error("tiny canvas should error")
	}
	nan := Series{X: []float64{math.NaN()}, Y: []float64{1}}
	if err := RenderWithOptions(&buf, "", []Series{nan}, 40, 10, Options{}); err == nil {
		t.Error("all-NaN should error")
	}
	// Constant series must not divide by zero.
	flat := Series{X: []float64{1, 1}, Y: []float64{2, 2}}
	if err := RenderWithOptions(&buf, "", []Series{flat}, 40, 10, Options{}); err != nil {
		t.Errorf("flat series: %v", err)
	}
}

func TestParseTSV(t *testing.T) {
	tsv := "x\ty1\ty2\tlabel\n1\t10\t5\tfoo\n2\t20\t5\tbar\n3\t30\t5\tbaz\n"
	series, err := ParseTSV(tsv)
	if err != nil {
		t.Fatal(err)
	}
	// y1 varies (kept); y2 constant (dropped); label non-numeric (dropped).
	if len(series) != 1 || series[0].Name != "y1" {
		t.Fatalf("series: %+v", series)
	}
	if len(series[0].X) != 3 || series[0].Y[2] != 30 {
		t.Errorf("values: %+v", series[0])
	}
}

func TestParseTSVErrors(t *testing.T) {
	if _, err := ParseTSV("onlyheader"); err == nil {
		t.Error("no rows should error")
	}
	if _, err := ParseTSV("a\n1\n2\n"); err == nil {
		t.Error("single column should error")
	}
	if _, err := ParseTSV("x\ty\nfoo\t1\nbar\t2\n"); err == nil {
		t.Error("non-numeric x should error")
	}
	if _, err := ParseTSV("x\ty\n1\tfoo\n2\tbar\n"); err == nil {
		t.Error("no numeric y should error")
	}
}

func TestParseTSVKeepsLoneConstantColumn(t *testing.T) {
	// With exactly one y column, keep it even if constant.
	series, err := ParseTSV("x\ty\n1\t5\n2\t5\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("series: %+v", series)
	}
}
