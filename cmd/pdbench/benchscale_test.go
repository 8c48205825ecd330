package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"probdedup"
)

// TestRunBenchScaleSmall runs the whole sweep at a small size and
// checks the report's structure and the soundness verdict: the
// filtered run must declare exactly the unfiltered run's pairs.
func TestRunBenchScaleSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	if err := runBenchScale(path, []int{400}, []int{1}, 5, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report scaleReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Suite != "scale-prefilter" || report.Seed != 5 {
		t.Fatalf("header: %+v", report)
	}
	if report.Env.GoMaxProcs < 1 || report.Env.NumCPU < 1 || report.Env.Commit == "" {
		t.Fatalf("env not captured: %+v", report.Env)
	}
	if len(report.Entries) != 2 || len(report.Speedups) != 1 {
		t.Fatalf("%d entries, %d speedups", len(report.Entries), len(report.Speedups))
	}
	plain, filtered := report.Entries[0], report.Entries[1]
	if plain.PreFilter || !filtered.PreFilter {
		t.Fatalf("entry order: %+v", report.Entries)
	}
	// The detector's Enumerated counter tracks pre-filter inspections,
	// so an unfiltered run reports zero for both.
	if plain.Filtered != 0 || plain.Enumerated != 0 {
		t.Fatalf("unfiltered entry reports filter work: %+v", plain)
	}
	if filtered.Enumerated != filtered.Compared+filtered.Filtered {
		t.Fatalf("counter conservation broken: %+v", filtered)
	}
	if filtered.Filtered == 0 {
		t.Fatalf("filter rejected nothing on the skewed corpus: %+v", filtered)
	}
	if plain.Matches != filtered.Matches || plain.Possible != filtered.Possible {
		t.Fatalf("declared counts differ: %+v vs %+v", plain, filtered)
	}
	sp := report.Speedups[0]
	if sp.Residents != 400 || sp.Workers != 1 || !sp.Identical {
		t.Fatalf("speedup row: %+v", sp)
	}
	if sp.Speedup <= 0 {
		t.Fatalf("speedup %v not positive", sp.Speedup)
	}
	for _, e := range report.Entries {
		if e.Batches != 1 || e.BatchSize != scaleBatchSize || e.NsPerBatch <= 0 || e.TuplesPerSec <= 0 {
			t.Fatalf("entry timing fields: %+v", e)
		}
	}
}

// TestSameDeclared covers the identity witness helper.
func TestSameDeclared(t *testing.T) {
	a := map[string]probdedup.Class{"x\x00y": probdedup.ClassM, "x\x00z": probdedup.ClassP}
	b := map[string]probdedup.Class{"x\x00y": probdedup.ClassM, "x\x00z": probdedup.ClassP}
	if !sameDeclared(a, b) {
		t.Fatal("identical maps reported different")
	}
	b["x\x00z"] = probdedup.ClassM
	if sameDeclared(a, b) {
		t.Fatal("class flip not detected")
	}
	delete(b, "x\x00z")
	if sameDeclared(a, b) {
		t.Fatal("size mismatch not detected")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1,4,16")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("parseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "a", "1,,2"} {
		if _, err := parseIntList(bad); err == nil {
			t.Fatalf("parseIntList(%q) accepted", bad)
		}
	}
}
