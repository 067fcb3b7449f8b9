package experiments

import (
	"encoding/csv"
	"encoding/json"
	"strings"
)

// CSV renders the report as RFC-4180 CSV: a header row of columns, then
// the data rows. Notes become trailing comment-style rows with a single
// "note" column prefix, so spreadsheet imports keep them visible.
func (r *Report) CSV() (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(r.Columns); err != nil {
		return "", err
	}
	for _, row := range r.Rows {
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	for _, n := range r.Notes {
		if err := w.Write([]string{"note", n}); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
