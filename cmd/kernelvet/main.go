// Command kernelvet runs the kernel-invariant analyzer suite over Go
// packages, in the spirit of a go/analysis multichecker:
//
//	go run ./cmd/kernelvet ./...
//	go run ./cmd/kernelvet -run atomics,ownership ./internal/timewarp
//	go run ./cmd/kernelvet -json ./... > findings.json
//
// It loads the named packages (default ./...), runs every analyzer —
// directives, atomics, ownership, determinism, noalloc, wiresafe — and
// prints findings as file:line:col: message (analyzer), or as a JSON array
// with -json. Exit status is 1 if anything was found, 2 on usage or load
// errors, 0 when clean.
//
// The analyzers are driven by the //kernelvet: annotation vocabulary; see
// the repository README and the internal/analyzers packages for the rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/atomics"
	"repro/internal/analyzers/determinism"
	"repro/internal/analyzers/directives"
	"repro/internal/analyzers/noalloc"
	"repro/internal/analyzers/ownership"
	"repro/internal/analyzers/wiresafe"
)

var all = []*analysis.Analyzer{
	directives.Analyzer,
	atomics.Analyzer,
	ownership.Analyzer,
	determinism.Analyzer,
	noalloc.Analyzer,
	wiresafe.Analyzer,
}

func main() {
	os.Exit(run())
}

func run() int {
	flag.Usage = usage
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	jsonFlag := flag.Bool("json", false, "print findings as a JSON array instead of plain text")
	flag.Parse()

	if *listFlag {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelvet:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelvet:", err)
		return 2
	}
	res, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelvet:", err)
		return 2
	}
	findings, err := analysis.RunAnalyzers(res, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelvet:", err)
		return 2
	}
	if *jsonFlag {
		if err := printJSON(findings); err != nil {
			fmt.Fprintln(os.Stderr, "kernelvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the stable machine-readable shape of one finding; tools
// (and the CI problem matcher, which parses the plain-text form) rely on
// these field names staying put.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func printJSON(findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
			Analyzer: f.Analyzer,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: kernelvet [-run a,b] [-list] [-json] [packages]\n\n")
	fmt.Fprintf(os.Stderr, "Runs the kernel-invariant analyzers over the packages (default ./...).\n\nFlags:\n")
	flag.PrintDefaults()
}
