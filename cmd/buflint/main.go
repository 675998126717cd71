// Buflint is the simulator's vettool: it assembles the internal/lint
// analyzers (simdeterminism, maporder, unitsafety, digestfield,
// eventcapture, shardsafety, shardownership, slabescape,
// rngconfinement) into a binary that speaks the `go vet -vettool`
// unitchecker protocol, built entirely on the standard library.
//
// Usage:
//
//	go build -o bin/buflint ./cmd/buflint
//	go vet -vettool=$(pwd)/bin/buflint ./...
//
// or standalone, without the go tool driving it:
//
//	go run ./cmd/buflint ./...
//
// In vettool mode go vet hands buflint one JSON config per package
// (naming the source files and the export data of every dependency);
// buflint type-checks from that and reports findings in the standard
// file:line:col form, exiting 2 when there are any. In standalone mode
// buflint loads packages itself from source, which needs no build cache
// but re-type-checks dependencies on every run. Standalone -json emits
// one object with every finding (position, analyzer, message, stable
// fingerprint) plus per-analyzer wall-time so the blocking CI lint
// job's budget is observable.
//
// Intentional exceptions are suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on, or immediately above, the offending line. A directive whose
// finding no longer fires is itself an error (lintstale): the
// suppression count can only shrink.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"bufsim/internal/lint"
)

// version keys go vet's action cache: bump it whenever any analyzer's
// behavior changes so cached "clean" verdicts are invalidated. v2 is the
// dataflow engine: flow-aware simdeterminism, shardownership,
// slabescape, rngconfinement, fingerprints and stale-suppression
// checking.
const version = "buflint version v2.1.0"

func main() {
	args := os.Args[1:]

	// Protocol probes from cmd/go.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full" || a == "-V" || a == "--V":
			// The output is part of go vet's action cache key; bump the
			// version string whenever an analyzer's behavior changes so
			// cached "clean" verdicts are invalidated.
			fmt.Println(version)
			return
		case a == "-flags" || a == "--flags":
			// Flags we accept from `go vet -<flag>`.
			fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit JSON diagnostics"}]`)
			return
		}
	}

	jsonOut := false
	var rest []string
	for _, a := range args {
		switch a {
		case "-json", "--json", "-json=true", "--json=true":
			jsonOut = true
		case "-json=false", "--json=false":
		default:
			rest = append(rest, a)
		}
	}

	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		runVetMode(rest[0], jsonOut)
		return
	}
	runStandalone(rest, jsonOut)
}

// runStandalone loads packages from source and prints findings; with
// -json it emits findings (with fingerprints) and per-analyzer timings
// as one JSON object on stdout. Exit status 2 signals findings in both
// forms.
func runStandalone(patterns []string, jsonOut bool) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	findings, timings, err := lint.RunTimed(mod, patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if jsonOut {
		emitStandaloneJSON(findings, timings)
	} else {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s\n", f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "buflint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// emitStandaloneJSON writes the standalone report: every finding with
// its stable fingerprint, plus each analyzer's aggregate wall time.
func emitStandaloneJSON(findings []lint.Finding, timings []lint.AnalyzerTiming) {
	type jsonFinding struct {
		Posn        string `json:"posn"`
		Analyzer    string `json:"analyzer"`
		Message     string `json:"message"`
		Fingerprint string `json:"fingerprint"`
	}
	type jsonTiming struct {
		Analyzer string  `json:"analyzer"`
		Millis   float64 `json:"ms"`
	}
	out := struct {
		Findings []jsonFinding `json:"findings"`
		Timings  []jsonTiming  `json:"timings"`
	}{Findings: []jsonFinding{}}
	for _, f := range findings {
		out.Findings = append(out.Findings, jsonFinding{
			Posn:        f.Position.String(),
			Analyzer:    f.Analyzer,
			Message:     f.Message,
			Fingerprint: f.Fingerprint,
		})
	}
	for _, t := range timings {
		out.Timings = append(out.Timings, jsonTiming{
			Analyzer: t.Analyzer,
			Millis:   float64(t.Elapsed.Microseconds()) / 1000,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
