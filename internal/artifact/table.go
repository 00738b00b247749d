package artifact

import (
	"encoding/csv"
	"encoding/json"
	"io"
)

// tableJSON is the on-disk shape of a points/<name>.json file: the scenario's
// Tabular view with its title kept alongside the cells.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// WriteTableCSV writes a Tabular result as CSV: one header line, one line per
// row. Cells are written verbatim — numeric cells use round-trip formatting
// upstream, so the CSV loses no precision.
func WriteTableCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteTableJSON writes a Tabular result as indented JSON
// ({title, headers, rows}).
func WriteTableJSON(w io.Writer, title string, headers []string, rows [][]string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{Title: title, Headers: headers, Rows: rows})
}
