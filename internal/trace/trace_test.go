package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{OpOpen, "open"},
		{OpCreate, "create"},
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpSeek, "seek"},
		{OpClose, "close"},
		{OpUnlink, "unlink"},
		{OpStat, "stat"},
		{OpReadDir, "readdir"},
		{OpMkdir, "mkdir"},
		{Op(0), "op(0)"},
		{Op(99), "op(99)"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("Op(%d).String() = %q, want %q", int(c.op), got, c.want)
		}
	}
}

func TestOpIsData(t *testing.T) {
	for op := OpOpen; op <= OpMkdir; op++ {
		want := op == OpRead || op == OpWrite
		if got := op.IsData(); got != want {
			t.Errorf("%s.IsData() = %v, want %v", op, got, want)
		}
	}
}

func TestOpJSONRoundTrip(t *testing.T) {
	for op := OpOpen; op <= OpMkdir; op++ {
		b, err := op.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %s: %v", op, err)
		}
		var back Op
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal %s: %v", op, err)
		}
		if back != op {
			t.Errorf("round trip %s -> %s", op, back)
		}
	}
}

func TestOpUnmarshalUnknown(t *testing.T) {
	var op Op
	if err := op.UnmarshalJSON([]byte(`"frobnicate"`)); err == nil {
		t.Error("unknown op name should fail to unmarshal")
	}
	if err := op.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("non-string op should fail to unmarshal")
	}
}

func TestLogAddAndRecords(t *testing.T) {
	var l Log
	if l.Len() != 0 {
		t.Fatalf("zero-value log has %d records", l.Len())
	}
	l.Add(Record{Session: 1, Op: OpOpen, Path: "/a"})
	l.Add(Record{Session: 1, Op: OpRead, Path: "/a", Bytes: 100})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	recs := l.Records()
	recs[0].Path = "/mutated"
	if l.Records()[0].Path != "/a" {
		t.Error("Records must return a copy")
	}
	l.Reset()
	if l.Len() != 0 {
		t.Error("Reset did not clear records")
	}
}

// TestLogConcurrentAdd runs locked Adds from several goroutines while
// readers iterate: each Each must see a prefix of every writer's stream,
// in order, with the strings each record was added with, and the final
// count must be exact. Every writer adds strings of its own and strings
// the others share, so the string table grows under the readers.
func TestLogConcurrentAdd(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	const workers, per, readers = 8, 100, 2
	path := func(w, i int) string { return fmt.Sprintf("/u%d/f%d", w*(i%2), i%10) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Add(Record{Session: w, User: w, UserType: fmt.Sprintf("t%d", w%3), Op: OpRead,
					Path: path(w, i), Bytes: int64(i), Err: fmt.Sprintf("e%d", i%4)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				var next [workers]int64
				l.Each(func(rec *Record) {
					w, i := rec.Session, int(rec.Bytes)
					if rec.Bytes != next[w] {
						t.Errorf("worker %d: saw record %d, want %d", w, i, next[w])
					}
					if rec.UserType != fmt.Sprintf("t%d", w%3) || rec.Path != path(w, i) || rec.Err != fmt.Sprintf("e%d", i%4) {
						t.Errorf("worker %d record %d: strings %q %q %q", w, i, rec.UserType, rec.Path, rec.Err)
					}
					next[w] = rec.Bytes + 1
				})
			}
		}()
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Errorf("Len = %d, want %d", l.Len(), workers*per)
	}
}

// TestDecodeJSONLResetsOmittedFields decodes a record that omits every
// omitempty field after one that sets them all: the reused decode buffer
// must not carry the earlier values over.
func TestDecodeJSONLResetsOmittedFields(t *testing.T) {
	var src Log
	src.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpWrite, Path: "/u1/f0",
		Category: 2, Bytes: 4096, FileSize: 4096, Start: 5, Elapsed: 700, Err: "vfs: no space left on device"})
	src.Add(Record{Session: 1, User: 1, Op: OpStat, Category: -1, Start: 710, Elapsed: 90})
	var buf bytes.Buffer
	if err := src.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Records(), src.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded records\n%+v\nwant\n%+v", got, want)
	}
	if got, want := Analyze(back), Analyze(&src); !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze of decoded log differs:\n%+v\nwant\n%+v", got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var l Log
	l.Add(Record{Session: 3, User: 1, UserType: "heavy", Op: OpRead, Path: "/u1/f0",
		Category: 2, Bytes: 1024, FileSize: 5794, Start: 10, Elapsed: 1300})
	l.Add(Record{Session: 3, User: 1, Op: OpClose, Path: "/u1/f0", Start: 1310, Elapsed: 150})
	l.Add(Record{Session: 4, User: 2, Op: OpOpen, Path: "/sys/s1", Err: "vfs: no such file or directory"})

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Errorf("JSONL line count = %d, want 3", got)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, got := l.Records(), back.Records()
	if len(got) != len(orig) {
		t.Fatalf("round trip length %d, want %d", len(got), len(orig))
	}
	for i := range orig {
		if orig[i] != got[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], orig[i])
		}
	}
}

// TestReadJSONLBadInput: malformed JSON and a record with no op (which
// would tabulate as an "op(0)" row and re-encode as a name no decoder
// accepts) fail, naming the record's line.
func TestReadJSONLBadInput(t *testing.T) {
	for in, line := range map[string]string{
		"{not json}\n": "line 1",
		`{"session":0,"user":0,"op":"stat","start":1,"elapsed":1}` + "\n" +
			`{"session":0,"user":0,"start":6,"elapsed":1}` + "\n": "line 2",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("%q: err = %v, want an error naming %s", in, err, line)
		}
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	l, err := ReadJSONL(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Errorf("empty input produced %d records", l.Len())
	}
}
