package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestFileSystemCaseAxis runs the thesis §5.3 comparison — one workload,
// a case axis whose cases patch only the file system, no seed salt — from
// the compare-filesystems example's own scenario file, with a fifth case
// that repeats the default NFS candidate.
func TestFileSystemCaseAxis(t *testing.T) {
	sc, err := Load("../../examples/compare-filesystems/filesystems.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != (Salt{}) {
		t.Fatalf("comparison salts its points (%+v): candidates would run different op streams", sc.Seed)
	}
	cases := &sc.Sweep[0].Cases
	*cases = append(*cases, Case{Label: "SUN NFS (4 nfsd) again", Spec: (*cases)[1].Spec})
	before, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Options{Scale: 0.5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, rows := res.(Tabular).Table()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	rpb := make([]float64, len(rows))
	for i, row := range rows {
		if rpb[i], err = strconv.ParseFloat(row[1], 64); err != nil {
			t.Fatal(err)
		}
	}
	local, nfs, oneNFSD, noCaches := rpb[0], rpb[1], rpb[2], rpb[3]

	// One seed is one op stream: identical candidates measure identically.
	t.Run("identical cases", func(t *testing.T) {
		if !reflect.DeepEqual(rows[1][1:], rows[4][1:]) {
			t.Errorf("identical candidates measured differently:\n%v\n%v", rows[1], rows[4])
		}
	})
	// The local file system avoids the wire; without caches every byte
	// pays disk and wire time.
	t.Run("ranking", func(t *testing.T) {
		for _, n := range []float64{nfs, oneNFSD, noCaches} {
			if local >= n {
				t.Errorf("local %v µs/B does not beat NFS %v µs/B:\n%s", local, n, res.Render())
			}
		}
		if noCaches <= nfs || noCaches <= oneNFSD {
			t.Errorf("the no-caches case is not the slowest NFS case:\n%s", res.Render())
		}
	})
	// Run reads the scenario only: cases share it across parallel points.
	t.Run("scenario untouched", func(t *testing.T) {
		if after, err := sc.JSON(); err != nil || !bytes.Equal(before, after) {
			t.Errorf("Run changed the scenario (err %v)", err)
		}
	})
	// A counter the local candidate's file system does not build fails its
	// point, naming the metric and the kind.
	t.Run("metric the kind lacks", func(t *testing.T) {
		sc, err := Load("../../examples/compare-filesystems/filesystems.json")
		if err != nil {
			t.Fatal(err)
		}
		sc.Output.Columns = append(sc.Output.Columns, Column{Header: "RPCs", Metric: "nfs.server_calls", Format: FormatInt})
		_, err = Run(context.Background(), sc, Options{Scale: 0.05, Parallelism: 1})
		if !errors.Is(err, ErrScenario) || !strings.Contains(err.Error(), `"nfs.server_calls"`) || !strings.Contains(err.Error(), "local") {
			t.Errorf("err = %v, want ErrScenario naming the metric and the local kind", err)
		}
	})
	// A candidate the spec cannot run fails at decode, not after the
	// others ran.
	t.Run("unknown fs kind", func(t *testing.T) {
		(*cases)[2].Spec = json.RawMessage(`{"fs": {"kind": "ramdisk"}}`)
		js, err := sc.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bytes.NewReader(js)); err == nil {
			t.Error("a case with an unknown fs kind decoded")
		}
	})
}
