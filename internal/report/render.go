package report

import (
	"io"
	"strings"
)

// WriteMarkdown renders the report as GitHub-flavored Markdown: one H1,
// one H2 per section, pipe tables, and fenced blocks for preformatted
// text.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("# " + r.Title + "\n\n")
	for _, sec := range r.Sections {
		sb.WriteString("## " + sec.Title + "\n\n")
		for _, p := range sec.Text {
			sb.WriteString(p + "\n\n")
		}
		if sec.Table != nil {
			writeMarkdownTable(&sb, sec.Table)
			sb.WriteByte('\n')
		}
		if sec.Pre != "" {
			sb.WriteString("```\n")
			sb.WriteString(sec.Pre)
			if !strings.HasSuffix(sec.Pre, "\n") {
				sb.WriteByte('\n')
			}
			sb.WriteString("```\n\n")
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeMarkdownTable(sb *strings.Builder, t *Table) {
	escape := func(cell string) string {
		return strings.ReplaceAll(strings.ReplaceAll(cell, "|", `\|`), "\n", " ")
	}
	sb.WriteString("| ")
	for i, h := range t.Header {
		if i > 0 {
			sb.WriteString(" | ")
		}
		sb.WriteString(escape(h))
	}
	sb.WriteString(" |\n|")
	for range t.Header {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString("| ")
		for i, cell := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(escape(cell))
		}
		sb.WriteString(" |\n")
	}
}
