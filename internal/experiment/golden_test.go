package experiment

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin small campaign renderings to frozen text in
// testdata/golden_*.txt. The equivalence tests compare forked, sharded and
// cohorted runs against straight ones; these pin the paper's tables to
// fixed values, so a change that drifts every path together still fails.
// A deliberate numerical change must regenerate the files (a failure
// prints the new rendering in full) and say why.

// checkGolden renders with write and compares the text with
// testdata/golden_<name>.txt.
func checkGolden(t *testing.T, name string, write func(io.Writer)) {
	t.Helper()
	var got bytes.Buffer
	write(&got)
	path := filepath.Join("testdata", "golden_"+name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s rendering diverged from %s:\n--- got\n%s--- frozen\n%s", name, path, got.Bytes(), want)
	}
}

func TestGoldenTable1(t *testing.T) {
	res, err := RunTable1(42)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", res.Write)
}

// TestGoldenMitigationSweep pins the forked, cohorted sweep path.
func TestGoldenMitigationSweep(t *testing.T) {
	results, err := RunMitigationSweep([]int16{12000, 16000, 20000}, MitigationConfig{Attacks: 4, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mitigation", func(w io.Writer) {
		for _, r := range results {
			r.Write(w)
		}
	})
}

func TestGoldenTable4(t *testing.T) {
	res, err := RunTable4(Table4Config{RunsA: 6, RunsB: 10, BaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4", res.Write)
}

func TestGoldenFig9(t *testing.T) {
	res, err := RunFig9(Fig9Config{
		Values:    []int16{4000, 20000},
		Durations: []int{4, 128},
		Reps:      3,
		BaseSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig9", res.Write)
}
