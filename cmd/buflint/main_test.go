package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the buflint binary into dir and returns its path.
func buildTool(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "buflint")
	cmd := exec.Command("go", "build", "-o", bin, "bufsim/cmd/buflint")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building buflint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/buflint -> repo root
}

// writeModule materializes a synthetic module. Its module path must be
// "bufsim" so maporder's and unitsafety's AppliesTo scopes treat it as
// the simulator; simdeterminism runs on any package.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const dirtySource = `package bufsim

import (
	"fmt"
	"time"
)

// Spray reads the wall clock outside wallclock.go and prints a map in
// iteration order: one finding for each analyzer under test.
func Spray(m map[string]int) {
	start := time.Now()
	for k, v := range m {
		fmt.Println(k, v, start)
	}
}
`

const cleanSource = `package bufsim

import (
	"fmt"
	"sort"
)

// Spray prints a map in sorted key order.
func Spray(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`

// TestStandaloneDirtyModule runs the assembled tool in standalone mode
// over a module with exactly two planted violations and asserts the exit
// status and diagnostic count the CI gate relies on.
func TestStandaloneDirtyModule(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":  "module bufsim\n\ngo 1.22\n",
		"tiny.go": dirtySource,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code = %d, want 2\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "buflint: 2 finding(s)") {
		t.Errorf("want exactly 2 findings, got:\n%s", text)
	}
	if !strings.Contains(text, "wall-clock time.Now") {
		t.Errorf("missing simdeterminism diagnostic:\n%s", text)
	}
	if !strings.Contains(text, "fmt.Println inside range over a map") {
		t.Errorf("missing maporder diagnostic:\n%s", text)
	}
}

// TestStandaloneCleanModule: no findings, exit 0, silence. The nested
// module under tools/ reads the wall clock, but it is its own module
// (as benchmark/ is in the real tree), so it is not linted.
func TestStandaloneCleanModule(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":         "module bufsim\n\ngo 1.22\n",
		"tiny.go":        cleanSource,
		"tools/go.mod":   "module bufsim/tools\n\ngo 1.22\n",
		"tools/clock.go": "package tools\n\nimport \"time\"\n\nfunc Stamp() time.Time { return time.Now() }\n",
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("clean module: %v\n%s", err, out)
	}
	if len(out) != 0 {
		t.Errorf("clean module produced output:\n%s", out)
	}
}

// TestSuppressionSilencesFinding: a //lint:ignore with a reason silences
// exactly the named analyzer at that site.
func TestSuppressionSilencesFinding(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod": "module bufsim\n\ngo 1.22\n",
		"tiny.go": `package bufsim

import "time"

// Stamp is telemetry-only by design.
func Stamp() int64 {
	//lint:ignore simdeterminism test fixture: telemetry only
	return time.Now().UnixNano()
}
`,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("suppressed module: %v\n%s", err, out)
	}
}

// wallStamp hands the wall clock to its caller from an ordinary file of
// a simulator package: a finding.
const wallStamp = `package sim

import "time"

// Stamp hands the wall clock to its caller.
func Stamp() time.Time { return time.Now() }
`

// wallDiscard reads the clock in the package's wallclock.go, the one
// file where a read is allowed.
const wallDiscard = `package sim

import "time"

// Discard reads the clock only to feed time.Since.
func Discard() {
	t0 := time.Now()
	_ = time.Since(t0)
}
`

// TestStandaloneDataflowAnalyzers runs simdeterminism on a synthetic
// module and asserts the exit status and that only the read outside
// wallclock.go is reported.
func TestStandaloneDataflowAnalyzers(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod":                    "module bufsim\n\ngo 1.22\n",
		"internal/sim/sim.go":       wallStamp,
		"internal/sim/wallclock.go": wallDiscard,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Errorf("exit code = %d, want 2\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "buflint: 1 finding(s)") {
		t.Errorf("want exactly 1 finding, got:\n%s", text)
	}
	if want := "sim.go:6:33: wall-clock time.Now in bufsim/internal/sim outside wallclock.go"; !strings.Contains(text, want) {
		t.Errorf("missing diagnostic %q in:\n%s", want, text)
	}
}

// TestStaleSuppressionFails: a //lint:ignore whose finding no longer
// fires is itself reported, so dead suppressions cannot accumulate.
func TestStaleSuppressionFails(t *testing.T) {
	bin := buildTool(t, t.TempDir())
	mod := writeModule(t, map[string]string{
		"go.mod": "module bufsim\n\ngo 1.22\n",
		"tiny.go": `package bufsim

// Stamp no longer reads the clock, but the directive lingers.
func Stamp() int64 {
	//lint:ignore simdeterminism leftover: the wall read below was removed
	return 42
}
`,
	})

	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit code 2 for stale directive, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "stale //lint:ignore simdeterminism directive") {
		t.Errorf("missing lintstale diagnostic:\n%s", out)
	}
}
