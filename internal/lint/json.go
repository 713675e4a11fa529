package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// This file is pablint's machine-readable surface: a stable JSON
// schema for findings, consumed by CI annotation tooling. See
// internal/lint/README.md for the schema contract.

// jsonSchemaVersion is bumped only on incompatible schema changes;
// additive fields do not bump it.
const jsonSchemaVersion = 1

// JSONFinding is one finding in the JSON report. File paths are
// module-root-relative and slash-separated so reports are portable
// across checkouts.
type JSONFinding struct {
	Rule           string `json:"rule"`
	File           string `json:"file"`
	Line           int    `json:"line"`
	Col            int    `json:"col"`
	Message        string `json:"message"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// JSONReport is the top-level JSON document.
type JSONReport struct {
	Version  int           `json:"version"`
	Module   string        `json:"module"`
	Findings []JSONFinding `json:"findings"`
}

// NewJSONReport converts findings (as returned by RunAll: sorted,
// suppressed entries marked) into the JSON document. modRoot anchors
// the relative file paths.
func NewJSONReport(modPath, modRoot string, findings []Finding) *JSONReport {
	r := &JSONReport{
		Version:  jsonSchemaVersion,
		Module:   modPath,
		Findings: make([]JSONFinding, 0, len(findings)),
	}
	for _, f := range findings {
		r.Findings = append(r.Findings, JSONFinding{
			Rule:           f.Rule,
			File:           relPath(modRoot, f.Pos.Filename),
			Line:           f.Pos.Line,
			Col:            f.Pos.Column,
			Message:        f.Msg,
			Suppressed:     f.Suppressed,
			SuppressReason: f.SuppressReason,
		})
	}
	return r
}

// WriteJSON writes the report, indented, with a trailing newline.
func (r *JSONReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// relPath maps an absolute finding path under modRoot to a
// slash-separated relative path; paths outside the root (shouldn't
// happen) pass through unchanged.
func relPath(modRoot, file string) string {
	if modRoot == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(modRoot, file)
	if err != nil || rel == ".." || filepath.IsAbs(rel) ||
		(len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)) {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
