package trace

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSONL holds the usage-log codec to three properties on any
// input: decoding does not panic; what ReadJSONL accepts re-encodes to a
// log y that is a fixed point, WriteJSONL(ReadJSONL(y)) == y; and folding
// the same input through DecodeJSONL into a Summarizer counts the same
// sessions, ops and errors as Analyze over the materialized log.
func FuzzDecodeJSONL(f *testing.F) {
	var l Log
	l.Add(Record{Session: 3, User: 1, UserType: "heavy", Op: OpRead, Path: "/u1/f0",
		Category: 2, Bytes: 1024, FileSize: 5794, Start: 10, Elapsed: 1300})
	l.Add(Record{Session: 3, User: 1, Op: OpClose, Path: "/u1/f0", Category: -1, Start: 1310, Elapsed: 150})
	l.Add(Record{Session: 4, User: 2, Op: OpOpen, Path: "/sys/s1", Err: "vfs: no such file or directory"})
	var seed bytes.Buffer
	if err := l.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"session":0,"user":0,"start":6,"elapsed":1}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, x []byte) {
		log, err := ReadJSONL(bytes.NewReader(x))
		if err != nil {
			return
		}
		var y bytes.Buffer
		if err := log.WriteJSONL(&y); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(y.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of a written log: %v\n%s", err, y.Bytes())
		}
		var z bytes.Buffer
		if err := back.WriteJSONL(&z); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(y.Bytes(), z.Bytes()) {
			t.Fatalf("WriteJSONL(ReadJSONL(y)) != y:\n%s\nvs\n%s", y.Bytes(), z.Bytes())
		}
		sum := NewSummarizer()
		if _, err := DecodeJSONL(bytes.NewReader(x), sum); err != nil {
			t.Fatalf("DecodeJSONL rejected what ReadJSONL accepted: %v", err)
		}
		if got, want := sum.Finish().Counters(), Analyze(log).Counters(); got != want {
			t.Fatalf("Summarizer counters %+v, Analyze counters %+v", got, want)
		}
	})
}
