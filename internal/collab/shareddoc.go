package collab

import (
	"sort"
	"strings"
	"sync"
)

// SharedDocument stands in for the external collaboration tool (e.g. Google
// Docs) used during simultaneous collaboration. The paper delegates the actual
// editing to such tools and only manages task generation and result recording;
// this type provides just enough of a shared artefact — an append-only
// operation log with deterministic merging — for result coordination to be
// exercised and tested end to end. The zero value is an empty document. All
// methods are safe for concurrent use.
type SharedDocument struct {
	mu  sync.RWMutex
	ops []DocOp
}

// DocOp is one edit applied to the shared document.
type DocOp struct {
	// Section optionally names the document section the text belongs to.
	Section string
	Text    string
}

// Append adds a contribution to the end of the document.
func (d *SharedDocument) Append(text string) {
	d.AppendSection("", text)
}

// AppendSection adds a contribution attributed to a named section.
func (d *SharedDocument) AppendSection(section, text string) {
	text = strings.TrimSpace(text)
	if text == "" {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops = append(d.ops, DocOp{Section: section, Text: text})
}

// Text merges the document: operations are grouped by section (sections in
// first-appearance order, the unnamed section first), and inside a section
// contributions appear in operation order separated by blank lines. Named
// sections are rendered with a "## section" heading.
func (d *SharedDocument) Text() string {
	d.mu.RLock()
	defer d.mu.RUnlock()

	var sectionOrder []string
	bySection := make(map[string][]string)
	for _, op := range d.ops {
		if _, seen := bySection[op.Section]; !seen {
			sectionOrder = append(sectionOrder, op.Section)
		}
		bySection[op.Section] = append(bySection[op.Section], op.Text)
	}
	// The unnamed section always renders first when present.
	sort.SliceStable(sectionOrder, func(i, j int) bool {
		if sectionOrder[i] == "" {
			return sectionOrder[j] != ""
		}
		return false
	})

	var b strings.Builder
	for _, sec := range sectionOrder {
		if b.Len() > 0 {
			b.WriteString("\n\n")
		}
		if sec != "" {
			b.WriteString("## ")
			b.WriteString(sec)
			b.WriteString("\n\n")
		}
		b.WriteString(strings.Join(bySection[sec], "\n\n"))
	}
	return b.String()
}
