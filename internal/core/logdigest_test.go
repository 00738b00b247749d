package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"uswg/internal/config"
)

// TestFullRecordLogDigest pins the full-record usage log byte for byte: each
// spec runs with the log sink, the log is written as JSONL (the bytes `wlgen
// run -log` writes), and its SHA-256 must equal the recorded digest. A
// change that means to keep simulated output identical keeps every row.
//
// The rows are the default spec, and a lazy one-island population, whose
// clients are built at each arrival and dropped when the user leaves.
//
// If an intentional change moves the simulated output, review the JSONL
// diff against the previous commit, then paste the digests the failing
// test reports:
//
//	go test ./internal/core -run TestFullRecordLogDigest
func TestFullRecordLogDigest(t *testing.T) {
	lazy := config.Default()
	lazy.Users = 12
	lazy.Sessions = 60
	lazy.LazyUsers = true
	for _, tc := range []struct {
		name string
		spec *config.Spec
		want string
	}{
		{"default", config.Default(), "d5402e68335b1b5166d9e115b94d3bc698d8f9070d091ff7cb72a82991f0f000"},
		{"lazy", lazy, "eca4ab782e36682330bf14e00b52b4e2f8ee2067929199623eeee4c0823116d2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, err := NewGenerator(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gen.Run(); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := gen.Log().WriteJSONL(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%d records hash to %s, want %s", gen.Log().Len(), got, tc.want)
			}
		})
	}
}
