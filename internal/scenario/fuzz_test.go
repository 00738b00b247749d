package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecode holds the scenario codec to these properties on any input:
// Decode does not panic; what it accepts has nothing but whitespace after
// its one JSON value; its re-encoding y is a fixed point, Encode(Decode(y))
// == y, that stops decoding once a second scenario follows it; each point
// Validate compiles compiles twice to equal specs; and compiling leaves
// the scenario's encoding unchanged, since parallel points share a
// registered scenario. The seed corpus is every embedded built-in, so
// plain `go test` runs the properties on each.
func FuzzDecode(f *testing.F) {
	for _, name := range builtinOrder {
		data, err := builtinFiles.ReadFile("builtin/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, x []byte) {
		sc, err := Decode(bytes.NewReader(x))
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
		y, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(bytes.NewReader(y))
		if err != nil {
			t.Fatalf("re-decode of an encoded scenario: %v\n%s", err, y)
		}
		z, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(y, z) {
			t.Fatalf("Encode(Decode(y)) != y:\n%s\nvs\n%s", y, z)
		}
		if _, err := Decode(bytes.NewReader(append(y, x...))); err == nil {
			t.Fatal("Decode accepted two scenarios concatenated")
		}
		for _, idx := range sc.checkedPoints() {
			a, errA := sc.compilePoint(Options{}, idx)
			b, errB := sc.compilePoint(Options{}, idx)
			if errA != nil || errB != nil {
				t.Fatalf("point %d of a decoded scenario does not compile: %v / %v", idx, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("point %d compiles to two specs:\n%+v\n%+v", idx, a.spec, b.spec)
			}
		}
		if after, err := sc.JSON(); err != nil || !bytes.Equal(after, y) {
			t.Fatalf("compiling points changed the scenario (err %v):\n%s\nvs\n%s", err, y, after)
		}
	})
}
