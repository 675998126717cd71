package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// harness holds what every mode needs: where the checkout is, where the
// built CLIs and scratch files live, and the seed handed to every child.
type harness struct {
	root   string // checkout root (holds BENCHMARK.json, cmd/, internal/)
	out    string // benchmark/out: binaries, scratch, spans.json
	seed   int64
	nproc  int
	buildS float64 // wall time of building the two CLIs
	tr     *tracer // nil unless this is the traced run
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func newHarness(seed int64) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, out: filepath.Join(root, "benchmark", "out"), seed: seed, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(filepath.Join(h.out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) bin(name string) string { return filepath.Join(h.out, "bin", name) }

// goBuild builds package pkg of the module in dir into out/bin/name.
func (h *harness) goBuild(dir, pkg, name string) error {
	cmd := exec.Command("go", "build", "-o", h.bin(name), pkg)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	return nil
}

// buildCLIs builds the two programs under test from the checkout's source.
// Its time depends on the Go build cache, not on the code being measured,
// so it is reported as harness.build_s and kept out of setup_s.
func (h *harness) buildCLIs() error {
	start := time.Now()
	for _, name := range []string{"bufsim", "paperexp"} {
		if err := h.goBuild(h.root, "./cmd/"+name, name); err != nil {
			return err
		}
	}
	h.buildS = time.Since(start).Seconds()
	return nil
}

// procsFor caps a workload's GOMAXPROCS at the machine's CPUs.
func (h *harness) procsFor(w *workload) int {
	if w.procs > h.nproc {
		return h.nproc
	}
	return w.procs
}

// repOpts vary a rep for the traced run; the zero value is an end-to-end rep.
type repOpts struct {
	label    string               // span name
	cacheDir string               // -cachedir for the sweep's commands and bufsim -cache reps
	perCmd   func(i int) []string // extra arguments for command i (tracing flags)
	env      []string             // extra environment
	cmds     [][]string           // replaces w.cmds (the shard sibling)
	procs    int                  // replaces the workload's GOMAXPROCS when > 0
}

// rep is the outcome of one rep: times and memory summed (max for RSS)
// over its commands, and their concatenated output.
type rep struct {
	wall, cpu float64 // seconds
	rssKB     int64
	stdout    []byte // stableOutput of every command, concatenated
	raw       []byte // the same before filtering
	stderr    []byte
	err       error // a command could not start or exited non-zero
}

// run executes one rep of w. Children inherit the harness environment plus
// GOMAXPROCS; only time inside the children is counted.
func (h *harness) run(w *workload, o repOpts) rep {
	defer h.tr.begin(o.label)()
	cmds, procs := w.cmds, h.procsFor(w)
	if o.cmds != nil {
		cmds = o.cmds
	}
	if o.procs > 0 {
		procs = o.procs
	}
	var r rep
	for i, c := range cmds {
		args := append([]string(nil), c[1:]...)
		args = append(args, "-seed", strconv.FormatInt(h.seed, 10))
		if o.cacheDir != "" {
			args = append(args, "-cachedir", o.cacheDir)
		}
		if o.perCmd != nil {
			args = append(args, o.perCmd(i)...)
		}
		cmd := exec.Command(h.bin(c[0]), args...)
		cmd.Dir = h.out
		cmd.Env = append(append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs)), o.env...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		r.wall += time.Since(start).Seconds()
		if ps := cmd.ProcessState; ps != nil {
			r.cpu += (ps.UserTime() + ps.SystemTime()).Seconds()
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > r.rssKB {
				r.rssKB = ru.Maxrss
			}
		}
		r.stdout = append(r.stdout, stableOutput(stdout.Bytes())...)
		r.raw = append(r.raw, stdout.Bytes()...)
		r.stderr = append(r.stderr, stderr.Bytes()...)
		if err != nil {
			r.err = fmt.Errorf("%s %v: %v: %s", c[0], args, err, lastLine(stderr.Bytes()))
			break
		}
	}
	return r
}

func lastLine(b []byte) string {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return string(lines[len(lines)-1])
}

// verify applies the output checks to a rep and returns why it fails, or
// "". want is the digest every rep of this seed must reproduce ("" for the
// first one).
func (w *workload) verify(r rep, want string) string {
	if r.err != nil {
		return r.err.Error()
	}
	if w.sweep {
		for _, c := range w.cmds {
			if id := c[len(c)-1]; !hasTable(r.stdout, id) {
				return "no " + id + " table in stdout"
			}
		}
	} else if _, err := utilization(r.stdout); err != nil {
		return err.Error()
	}
	if got := digest(r.stdout); want != "" && got != want {
		return fmt.Sprintf("stdout digest %.12s differs from the first rep's %.12s", got, want)
	}
	return ""
}

// tempDir makes a scratch directory under out/tmp; the caller removes it.
func (h *harness) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(filepath.Join(h.out, "tmp"), pattern)
}
