package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Encode writes the spec as indented JSON.
func (s *Spec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	return nil
}

// Decode parses a spec from JSON and validates it. The input must hold
// exactly one JSON object: trailing data (a second object, a stray brace)
// is rejected rather than silently ignored.
func Decode(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the spec object", ErrSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Save writes the spec to a file.
func (s *Spec) Save(path string) error {
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("config: save %s: %w", path, err)
	}
	return nil
}

// Load reads and validates a spec file.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: load: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
