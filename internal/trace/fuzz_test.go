package trace

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzDecodeJSONL holds the usage-log codec to three properties on any
// input: decoding does not panic; what ReadJSONL accepts re-encodes to a
// log y that is a fixed point, WriteJSONL(ReadJSONL(y)) == y; and folding
// the same input through DecodeJSONL into a Summarizer counts the same
// sessions, ops and errors as Analyze over the materialized log, and
// yields the same per-category rows bit for bit. The rest of the two
// Analyses is not compared: its stats may be NaN on hostile input.
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
	// Hostile categories, and the extreme access-per-byte terms 2^63 and
	// 2^-63 in one category.
	var hostile Log
	hostile.Add(Record{Session: 5, Op: OpRead, Path: "/h", Category: -7, Bytes: 9, FileSize: 3})
	hostile.Add(Record{Session: 5, Op: OpWrite, Path: "/m", Category: math.MaxInt64, Bytes: math.MaxInt64, FileSize: 1})
	hostile.Add(Record{Session: 6, Op: OpRead, Path: "/m", Category: math.MaxInt64, Bytes: 1, FileSize: math.MaxInt64})
	var hostileSeed bytes.Buffer
	if err := hostile.WriteJSONL(&hostileSeed); err != nil {
		f.Fatal(err)
	}
	f.Add(hostileSeed.Bytes())
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
		got, want := sum.Finish(), Analyze(log)
		if got.Counters() != want.Counters() {
			t.Fatalf("Summarizer counters %+v, Analyze counters %+v", got.Counters(), want.Counters())
		}
		sameBits := func(a, b CategoryUsage) bool {
			return a.Category == b.Category && a.Sessions == b.Sessions && a.Files == b.Files &&
				math.Float64bits(a.AccessPerByte) == math.Float64bits(b.AccessPerByte)
		}
		if !slices.EqualFunc(got.Categories, want.Categories, sameBits) {
			t.Fatalf("Summarizer categories %+v, Analyze categories %+v", got.Categories, want.Categories)
		}
	})
}
