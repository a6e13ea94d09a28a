// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the kernel and network cost models.
// Each Figure* function returns typed rows plus a formatted text table so the
// cmd/ tools, the examples and the testing.B benchmarks all share one
// implementation.  The package's tests hold the regenerated numbers to the
// trends the paper publishes.
package bench

import (
	"fmt"
	"strings"
)

// Table is a simple formatted result table shared by all experiments.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
