package config

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecode holds the spec codec to three properties on any input: Decode
// does not panic; what it accepts has nothing but whitespace after its one
// JSON value; and its re-encoding y is a fixed point, Encode(Decode(y)) == y,
// that stops decoding once a second spec follows it. The seeds are the
// default spec and a two-island pooled fleet.
func FuzzDecode(f *testing.F) {
	pooled := Default()
	pooled.FS.Topology = &Topology{Servers: 2, ClientPool: 4, Placement: PlaceReplicate}
	for _, s := range []*Spec{Default(), pooled} {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("seed does not decode: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		s, err := Decode(bytes.NewReader(x))
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(x))
		var first json.RawMessage
		if err := dec.Decode(&first); err != nil {
			t.Fatalf("Decode accepted input that is not JSON: %v", err)
		}
		if rest := bytes.Trim(x[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("Decode accepted trailing data %q", rest)
		}
		var y bytes.Buffer
		if err := s.Encode(&y); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(y.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of an encoded spec: %v\n%s", err, y.Bytes())
		}
		var z bytes.Buffer
		if err := back.Encode(&z); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(y.Bytes(), z.Bytes()) {
			t.Fatalf("Encode(Decode(y)) != y:\n%s\nvs\n%s", y.Bytes(), z.Bytes())
		}
		if _, err := Decode(bytes.NewReader(append(y.Bytes(), x...))); err == nil {
			t.Fatal("Decode accepted two specs concatenated")
		}
	})
}
