// Command benchdiff is the CI perf-regression gate. It compares a fresh
// stcam-bench -json run against a committed baseline (BENCH_CI.json) over the
// machine-robust columns in bench.DefaultGate and exits nonzero when any
// drifts past tolerance.
//
//	stcam-bench -exp R3,R8,R12,R15,R16,R17,R20,R21,R23 -scale 0.15 -json current.json
//	benchdiff -baseline BENCH_CI.json -current current.json -md "$GITHUB_STEP_SUMMARY"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stcam/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		basePath = flag.String("baseline", "BENCH_CI.json", "committed baseline document")
		curPath  = flag.String("current", "", "fresh stcam-bench -json output")
		mdPath   = flag.String("md", "", "append the markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	if *curPath == "" {
		return fmt.Errorf("-current is required")
	}

	base, err := readDoc(*basePath)
	if err != nil {
		return err
	}
	cur, err := readDoc(*curPath)
	if err != nil {
		return err
	}

	report := bench.Compare(base, cur, bench.DefaultGate())
	fmt.Print(report.String())
	if *mdPath != "" {
		f, err := os.OpenFile(*mdPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.WriteString(report.Markdown() + "\n")
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	if report.Failed() {
		fmt.Println("benchdiff: regression gate FAILED")
		os.Exit(1)
	}
	fmt.Println("benchdiff: within tolerance")
	return nil
}

func readDoc(path string) (*bench.BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc bench.BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}
