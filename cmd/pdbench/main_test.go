package main

import "testing"

// TestRunSyntheticExperimentsSmall smoke-runs the -exp experiment
// runners at a tiny corpus size: each must complete and print its
// table without panicking.
func TestRunSyntheticExperimentsSmall(t *testing.T) {
	for name, run := range map[string]func(int, int64){
		"s01": runS01, "s02": runS02, "s03": runS03, "s05": runS05, "a01": runA01, "a02": runA02,
	} {
		t.Run(name, func(t *testing.T) { run(12, 3) })
	}
}
