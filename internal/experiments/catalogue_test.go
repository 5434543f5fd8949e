package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// An unknown experiment or benchmark name is rejected before the valid
// names ahead of it run.
func TestRunRejectsUnknownName(t *testing.T) {
	for _, tc := range []struct {
		names, benchmarks []string
		bad, valid        string // the error names the bad name and a valid one
	}{
		{[]string{"fig10", "fig99"}, []string{"mri-q"}, `"fig99"`, "resilience"},
		{[]string{"fig10"}, []string{"mri-q", "nope"}, `"nope"`, "sgemm"},
	} {
		runs := 0
		doc, err := Run(tc.names, Options{Benchmarks: tc.benchmarks,
			Progress: func(int, int, string) { runs++ }})
		if err == nil || doc != nil {
			t.Fatalf("Run = %v, %v; want nil and an error", doc, err)
		}
		if !strings.Contains(err.Error(), tc.bad) || !strings.Contains(err.Error(), tc.valid) {
			t.Errorf("error %q must name the bad name and the valid ones", err)
		}
		if runs != 0 {
			t.Errorf("%d simulations ran before the name check", runs)
		}
	}
}

// The JSON document decodes to a Document that renders the same text.
func TestDocumentJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		names    []string
		simulate bool
		sections int
	}{
		{[]string{"table1", "table2"}, false, 2},
		{[]string{"fig10", "table2", "table1"}, true, 3},
	} {
		t.Run(strings.Join(tc.names, ","), func(t *testing.T) {
			if tc.simulate && testing.Short() {
				t.Skip("runs simulations")
			}
			doc, err := Run(tc.names, Options{Benchmarks: []string{"mri-q"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(doc.Sections) != tc.sections || doc.Sections[0].Name != "table1" {
				t.Fatalf("sections = %+v, want %d in catalogue order", doc.Sections, tc.sections)
			}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var back Document
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if got, want := back.String(), doc.String(); got != want {
				t.Errorf("decoded document renders\n%s\nwant\n%s", got, want)
			}
			const table2 = "table2 — Operand logging overheads\n" +
				"log         SM area   GPU area   SM power  GPU power\n" +
				"8 KB          1.04%      0.47%      1.82%      1.28%\n"
			if !strings.Contains(doc.String(), table2) {
				t.Errorf("Table 2 renders\n%s\nwant it to contain\n%s", doc, table2)
			}
		})
	}
}
