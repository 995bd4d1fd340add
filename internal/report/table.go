package report

import (
	"strings"
	"unicode/utf8"
)

// table is one ASCII table of Text's rendering: a header, a rule, and
// rows whose cells are left-aligned to the widest cell of their column
// (widths count runes; no line ends in padding).
type table struct {
	title  string
	header []string
	rows   [][]string
}

// add appends a row of cells.
func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title + "\n")
	}
	line := func(cells []string) {
		cells = cells[:min(len(cells), len(widths))] // cells beyond the header are dropped
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		sb.WriteString("\n")
	}
	line(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.rows {
		line(r)
	}
	return sb.String()
}
