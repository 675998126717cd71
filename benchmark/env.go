package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded with every result: a number means nothing
// without the machine and the settings it was measured on.
type environment struct {
	NProc     int           `json:"nproc"`
	GoVersion string        `json:"go_version"`
	GitRev    string        `json:"git_rev"`
	CPUModel  string        `json:"cpu_model"`
	Kernel    string        `json:"kernel"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Workloads []workloadEnv `json:"workloads"`
	Notes     []string      `json:"notes,omitempty"`
}

type workloadEnv struct {
	Name       string `json:"name"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"warmup_reps"`
	R          int    `json:"timed_reps"`
}

func (h *harness) environment(seconds float64) environment {
	env := environment{
		NProc:     h.nproc,
		GoVersion: runtime.Version(),
		GitRev:    "unknown",
		CPUModel:  cpuModel(),
		Kernel:    "unknown",
		Seed:      h.seed,
		Seconds:   seconds,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		env.GitRev = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	for i := range workloads {
		w := &workloads[i]
		env.Workloads = append(env.Workloads, workloadEnv{w.name, h.procsFor(w), w.warmups, w.reps(seconds)})
	}
	if h.nproc < 2 {
		env.Notes = append(env.Notes, "overhead_only: one CPU, so longlived_1000_shards2 and sweep_cold measure engine overhead, not parallel speed")
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
