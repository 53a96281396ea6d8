package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Procs", "Mflop/s")
	tb.AddRow(1, 29.9)
	tb.AddRow(8, 228.5)
	out := tb.Render()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "228.50") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if tb.Rows() != 2 || tb.Cell(0, 1) != "29.90" {
		t.Fatalf("cell access wrong: %q", tb.Cell(0, 1))
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestSeriesYAt(t *testing.T) {
	s := &Series{Name: "x2"}
	s.Add(1, 1)
	s.Add(2, 4)
	if y, ok := s.YAt(2); !ok || y != 4 {
		t.Fatalf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) should miss")
	}
}

func TestRenderSeriesUnion(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "b"}
	b.Add(2, 200)
	b.Add(3, 300)
	out := Render("Fig", "n", "µs", a, b)
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "300.00") {
		t.Fatalf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing gap marker for unmatched x:\n%s", out)
	}
}

func TestSlopeExactLine(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}, {3, 7}}
	if s := Slope(pts); s < 1.999 || s > 2.001 {
		t.Fatalf("slope = %v, want 2", s)
	}
	if Slope(pts[:1]) != 0 {
		t.Fatal("degenerate slope should be 0")
	}
	if Slope([]Point{{1, 5}, {1, 9}}) != 0 {
		t.Fatal("vertical line slope should be reported as 0")
	}
}

// Property: slope of y = a*x + b recovered for arbitrary a, b.
func TestSlopeProperty(t *testing.T) {
	prop := func(a, b int8) bool {
		var pts []Point
		for x := 0; x < 5; x++ {
			pts = append(pts, Point{float64(x), float64(a)*float64(x) + float64(b)})
		}
		got := Slope(pts)
		diff := got - float64(a)
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
