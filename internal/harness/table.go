// Package harness implements the experiment suite E1–E9 (indexed in
// docs/ARCHITECTURE.md, "Verification and performance stack"): each of the
// paper's theorems and complexity claims is regenerated as a table or
// series, and cmd/slbench prints them.
package harness

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	// Title names the experiment, e.g. "E2: ABA-detecting register step complexity".
	Title string
	// Claim is the paper statement being tested.
	Claim string
	// Header labels the columns.
	Header []string
	// Rows hold the measurements.
	Rows [][]string
	// Notes carry caveats and conclusions.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "Claim: %s\n", t.Claim)
	}
	b.WriteString("\n")

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
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

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note:* %s\n", n)
	}
	return b.String()
}
