package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpues/internal/analysis/registry"
)

// inModule runs fn with the working directory set to the fixture
// module, so standalone()'s FindModule resolves the fixture's go.mod.
func inModule(t *testing.T, dir string, fn func() int) int {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(abs); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	return fn()
}

// TestExitCodeContract pins the driver's exit statuses: 0 clean, 1
// driver error, 2 findings (matching go vet).
func TestExitCodeContract(t *testing.T) {
	if got := inModule(t, "testdata/cleanmod", func() int { return standalone([]string{"./..."}) }); got != 0 {
		t.Errorf("clean module: standalone exited %d, want 0", got)
	}
	if got := inModule(t, "testdata/badmod", func() int { return standalone([]string{"./..."}) }); got != 2 {
		t.Errorf("module with unserialized field: standalone exited %d, want 2", got)
	}
	if got := inModule(t, "testdata/brokenmod", func() int { return standalone([]string{"./..."}) }); got != 1 {
		t.Errorf("unparseable module: standalone exited %d, want 1", got)
	}
	// Only requested packages are reported: ./user imports the defective
	// ./comp but is clean itself.
	if got := inModule(t, "testdata/badmod", func() int { return standalone([]string{"./user"}) }); got != 0 {
		t.Errorf("package importing the defect: standalone exited %d, want 0", got)
	}
	if got := inModule(t, "testdata/badmod", func() int { return standalone([]string{"./comp"}) }); got != 2 {
		t.Errorf("package with the defect: standalone exited %d, want 2", got)
	}
}

// TestList checks that -list prints every registered analyzer with a
// one-line doc.
func TestList(t *testing.T) {
	var sb strings.Builder
	listAnalyzers(&sb)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if want := len(registry.All()); len(lines) != want {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), want, out)
	}
	for i, a := range registry.All() {
		prefix := a.Name + ": "
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], prefix)
		}
		if strings.TrimPrefix(lines[i], prefix) == "" {
			t.Errorf("analyzer %s has no one-line doc", a.Name)
		}
		if strings.Contains(lines[i], "\n") {
			t.Errorf("analyzer %s doc spills past one line", a.Name)
		}
	}
	for _, name := range []string{"determinism", "poolsafe", "noalloc", "enumswitch", "directive", "ckptcomplete"} {
		if !strings.Contains(out, name+": ") {
			t.Errorf("-list output is missing analyzer %s:\n%s", name, out)
		}
	}
}
