package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// defaultSeed is the workload seed the golden file is recorded at; it
// is also workloads.Params' own default.
const defaultSeed = 42

// goldenJSON holds the cycles and committed warp instructions of every
// job at defaultSeed. Regenerate with: go test -run TestGolden -update
// (from this directory).
//
//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]outcome, error) {
	var g map[string]outcome
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}
