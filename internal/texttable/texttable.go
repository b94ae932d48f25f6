// Package texttable writes plain-text tables with aligned columns: the
// layout of the paper's figures and of the cluster scenario reports.
package texttable

import (
	"fmt"
	"strings"
)

// Write appends header, a dashed separator and rows to b. Every cell is
// left-aligned and padded to the widest cell of its column, and columns
// are two spaces apart. No row may have more cells than header.
func Write(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(header)
	sep := make([]string, len(header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}
