package main

import (
	"testing"

	"repro/internal/analyzers/analysis"
)

// TestRepositoryIsKernelvetClean runs every analyzer in all over the whole
// module and expects no finding: the check CI runs as `go run ./cmd/kernelvet
// ./...`, kept as a plain test so `go test ./...` alone catches an
// annotation-contract regression.
func TestRepositoryIsKernelvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	res, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	findings, err := analysis.RunAnalyzers(res, all)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// BenchmarkKernelvet measures a full analyzer sweep over the repository —
// the cost every CI run and pre-commit hook pays. Each iteration runs
// `go list -export`, parses and type-checks the module and runs the
// analyzers.
func BenchmarkKernelvet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := analysis.Load("../..", "./...")
		if err != nil {
			b.Fatalf("loading module packages: %v", err)
		}
		findings, err := analysis.RunAnalyzers(res, all)
		if err != nil {
			b.Fatalf("running analyzers: %v", err)
		}
		if len(findings) != 0 {
			b.Fatalf("kernelvet not clean: %s", findings[0])
		}
	}
}
