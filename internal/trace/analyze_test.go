package trace

import (
	"math"
	"reflect"
	"testing"
)

// sampleLog builds a two-session log with known aggregates.
func sampleLog() *Log {
	var l Log
	// Session 1: user 1 reads /a (size 1000) twice fully, writes /b (size 500).
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpOpen, Path: "/a", FileSize: 1000, Elapsed: 100})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpRead, Path: "/a", Bytes: 1000, FileSize: 1000, Elapsed: 2000})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpRead, Path: "/a", Bytes: 1000, FileSize: 1000, Elapsed: 1000})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpClose, Path: "/a", FileSize: 1000, Elapsed: 50})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpCreate, Path: "/b", Elapsed: 120})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpWrite, Path: "/b", Bytes: 500, FileSize: 500, Elapsed: 500})
	l.Add(Record{Session: 1, User: 1, UserType: "heavy", Op: OpClose, Path: "/b", FileSize: 500, Elapsed: 50})
	// Session 2: user 2 stats a missing file (error), reads half of /c (size 2000).
	l.Add(Record{Session: 2, User: 2, UserType: "light", Op: OpStat, Path: "/missing", Err: "vfs: no such file or directory", Elapsed: 80})
	l.Add(Record{Session: 2, User: 2, UserType: "light", Op: OpOpen, Path: "/c", FileSize: 2000, Elapsed: 100})
	l.Add(Record{Session: 2, User: 2, UserType: "light", Op: OpRead, Path: "/c", Bytes: 1000, FileSize: 2000, Elapsed: 800})
	l.Add(Record{Session: 2, User: 2, UserType: "light", Op: OpClose, Path: "/c", FileSize: 2000, Elapsed: 50})
	return &l
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAnalyzeSessions(t *testing.T) {
	a := Analyze(sampleLog())
	if len(a.Sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(a.Sessions))
	}
	s1 := a.Sessions[0]
	if s1.Session != 1 || s1.UserType != "heavy" {
		t.Fatalf("session 1 misidentified: %+v", s1)
	}
	if s1.Ops != 7 || s1.DataOps != 3 {
		t.Errorf("session 1 ops = %d/%d, want 7/3", s1.Ops, s1.DataOps)
	}
	if s1.Bytes != 2500 {
		t.Errorf("session 1 bytes = %d, want 2500", s1.Bytes)
	}
	if s1.FilesReferenced != 2 {
		t.Errorf("session 1 files = %d, want 2", s1.FilesReferenced)
	}
	// /a: 2000 transferred / 1000 size = 2.0; /b: 500/500 = 1.0 -> mean 1.5.
	if !almost(s1.AccessPerByte, 1.5) {
		t.Errorf("session 1 access-per-byte = %v, want 1.5", s1.AccessPerByte)
	}
	if !almost(s1.AvgFileSize, 750) {
		t.Errorf("session 1 avg file size = %v, want 750", s1.AvgFileSize)
	}
	// Data response 2000+1000+500 = 3500 over 2500 bytes = 1.4 µs/B.
	if !almost(s1.ResponsePerByte, 1.4) {
		t.Errorf("session 1 response/byte = %v, want 1.4", s1.ResponsePerByte)
	}

	s2 := a.Sessions[1]
	// /missing never reports a size; /c is 2000.
	if s2.FilesReferenced != 2 {
		t.Errorf("session 2 files = %d, want 2", s2.FilesReferenced)
	}
	if !almost(s2.AvgFileSize, 1000) { // (0 + 2000) / 2
		t.Errorf("session 2 avg file size = %v, want 1000", s2.AvgFileSize)
	}
	// Only /c has size > 0: 1000/2000 = 0.5.
	if !almost(s2.AccessPerByte, 0.5) {
		t.Errorf("session 2 access-per-byte = %v, want 0.5", s2.AccessPerByte)
	}
}

func TestAnalyzeByOp(t *testing.T) {
	a := Analyze(sampleLog())
	var read, write *OpSummary
	for i := range a.ByOp {
		switch a.ByOp[i].Op {
		case OpRead:
			read = &a.ByOp[i]
		case OpWrite:
			write = &a.ByOp[i]
		}
	}
	if read == nil || write == nil {
		t.Fatal("missing read/write summaries")
	}
	if read.Count != 3 {
		t.Errorf("read count = %d, want 3", read.Count)
	}
	if !almost(read.Size.Mean(), 1000) {
		t.Errorf("read size mean = %v, want 1000", read.Size.Mean())
	}
	if write.Count != 1 || !almost(write.Size.Mean(), 500) {
		t.Errorf("write summary = %+v", write)
	}
	// Ops must be ordered.
	for i := 1; i < len(a.ByOp); i++ {
		if a.ByOp[i-1].Op >= a.ByOp[i].Op {
			t.Error("ByOp not sorted")
		}
	}
}

func TestAnalyzeGlobals(t *testing.T) {
	a := Analyze(sampleLog())
	if a.Errors != 1 {
		t.Errorf("errors = %d, want 1", a.Errors)
	}
	if a.AccessSize.N() != 4 {
		t.Errorf("access size n = %d, want 4", a.AccessSize.N())
	}
	if !almost(a.AccessSize.Mean(), 875) { // (1000+1000+500+1000)/4
		t.Errorf("access size mean = %v, want 875", a.AccessSize.Mean())
	}
	// Byte-weighted response/byte: (3500 + 800) / (2500 + 1000).
	want := 4300.0 / 3500.0
	if !almost(a.MeanResponsePerByte(), want) {
		t.Errorf("mean response/byte = %v, want %v", a.MeanResponsePerByte(), want)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(&Log{})
	if len(a.Sessions) != 0 || len(a.ByOp) != 0 || len(a.Categories) != 0 || a.Errors != 0 {
		t.Errorf("empty analysis not empty: %+v", a)
	}
	if a.MeanResponsePerByte() != 0 {
		t.Error("empty analysis response/byte should be 0")
	}
}

func TestSessionValues(t *testing.T) {
	a := Analyze(sampleLog())
	vals := a.SessionValues(func(s SessionUsage) float64 { return float64(s.FilesReferenced) })
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 2 {
		t.Errorf("session values = %v, want [2 2]", vals)
	}
}

func TestAnalyzeZeroByteSession(t *testing.T) {
	var l Log
	l.Add(Record{Session: 9, Op: OpOpen, Path: "/x", Elapsed: 10})
	l.Add(Record{Session: 9, Op: OpClose, Path: "/x", Elapsed: 10})
	a := Analyze(&l)
	if len(a.Sessions) != 1 {
		t.Fatalf("sessions = %d", len(a.Sessions))
	}
	s := a.Sessions[0]
	if s.ResponsePerByte != 0 || s.AccessPerByte != 0 {
		t.Errorf("no-data session should have zero per-byte measures: %+v", s)
	}
}

// TestCategoryFoldIgnoresSessionOrder: one category, three sessions of one
// file each. The access-per-byte terms are 1 (1 B of a 1-byte file) and
// twice 2^-53 (1 B of a 2^53-byte file). Added in that order, a float64 sum
// reads 1; the other way round it reads 1+2^-52. The Summarizer retires
// sessions in stream order and Analyze finishes them in map order, so the
// row must come out the same from both retirement orders and from Analyze.
func TestCategoryFoldIgnoresSessionOrder(t *testing.T) {
	rec := func(session int, size int64) Record {
		return Record{Session: session, Op: OpRead, Path: "/f", Category: 4, Bytes: 1, FileSize: size, Elapsed: 1}
	}
	recs := []Record{rec(0, 1), rec(1, 1<<53), rec(2, 1<<53)}
	stream := func(order ...int) *Analysis {
		s := NewSummarizer()
		h := s.Stream(0)
		for _, i := range order {
			h.Emit(&recs[i])
		}
		return s.Finish()
	}
	var l Log
	for _, r := range recs {
		l.Add(r)
	}
	largeFirst, smallFirst, logged := stream(0, 1, 2), stream(1, 2, 0), Analyze(&l)
	want := []CategoryUsage{{Category: 4, Sessions: 3, Files: 3, AccessPerByte: (1 + 0x1p-52) / 3}}
	if want[0].AccessPerByte == 1.0/3 {
		t.Fatal("the terms do not tell the summation orders apart")
	}
	if !reflect.DeepEqual(largeFirst.Categories, want) {
		t.Errorf("largest term first: %+v, want %+v", largeFirst.Categories, want)
	}
	if !reflect.DeepEqual(largeFirst, smallFirst) || !reflect.DeepEqual(largeFirst, logged) {
		t.Errorf("analyses diverge:\nlargest first %+v\nsmallest first %+v\nAnalyze %+v", largeFirst, smallFirst, logged)
	}
}

// TestCategoryFoldCountsFailedReferences: a file referenced only by a failed
// open still counts, in its category's row as in the session's
// FilesReferenced, and adds no access-per-byte term. A file of negative
// category is uncategorized: its session counts it, but no row does.
func TestCategoryFoldCountsFailedReferences(t *testing.T) {
	var l Log
	l.Add(Record{Session: 1, Op: OpOpen, Path: "/gone", Category: 2, Err: "vfs: no such file or directory"})
	l.Add(Record{Session: 2, Op: OpRead, Path: "/tmp", Category: -7, Bytes: 10, FileSize: 10})
	a := Analyze(&l)
	want := []CategoryUsage{{Category: 2, Sessions: 1, Files: 1}}
	if !reflect.DeepEqual(a.Categories, want) {
		t.Errorf("categories = %+v, want %+v", a.Categories, want)
	}
	for _, u := range a.Sessions {
		if u.FilesReferenced != 1 {
			t.Errorf("session %d references %d files, want 1", u.Session, u.FilesReferenced)
		}
	}
}
