package artifact

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ReadManifest loads a folder's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("artifact: manifest: %w", err)
	}
	return &m, nil
}

// ReadTableJSON loads a points/<name>.json file back into its parts.
func ReadTableJSON(r io.Reader) (title string, headers []string, rows [][]string, err error) {
	var t tableJSON
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return "", nil, nil, fmt.Errorf("artifact: table json: %w", err)
	}
	return t.Title, t.Headers, t.Rows, nil
}

// ReadTableCSV loads a points/<name>.csv file back into headers and rows.
func ReadTableCSV(r io.Reader) (headers []string, rows [][]string, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	all, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: table csv: %w", err)
	}
	if len(all) == 0 {
		return nil, nil, nil
	}
	return all[0], all[1:], nil
}
