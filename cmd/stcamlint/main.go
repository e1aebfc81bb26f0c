// Command stcamlint runs the project-invariant analyzer suite
// (internal/analyzers) over the module: rpcunderlock, bufrelease, failclosed,
// clockinject, and metricname — the bug classes this codebase has shipped and
// re-fixed, encoded as compiler-enforced rules — and testonly, which reports
// exported API under internal/ that only tests use.
//
// Usage (make stcamlint and CI run the first form):
//
//	go run ./cmd/stcamlint ./...          # whole module
//	go run ./cmd/stcamlint ./internal/core
//	go run ./cmd/stcamlint -analyzers clockinject,metricname ./...
//
// Exit status is 1 when any diagnostic survives //lint:allow suppression.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"stcam/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("stcamlint", flag.ExitOnError)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: stcamlint [-analyzers a,b] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Packages default to ./... relative to the module root.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var sel []string
	if *names != "" {
		sel = strings.Split(*names, ",")
	}
	as := analyzers.ByName(sel)
	if len(as) == 0 {
		fmt.Fprintf(os.Stderr, "stcamlint: no analyzers match %q\n", *names)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stcamlint:", err)
		return 2
	}
	loader, err := analyzers.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stcamlint:", err)
		return 2
	}

	// testonly weighs a package's exports against every non-test use in the
	// module, so the whole module is loaded whatever the patterns select.
	if _, err := loader.LoadAll(); err != nil {
		fmt.Fprintln(os.Stderr, "stcamlint:", err)
		return 2
	}
	pkgs, err := resolvePackages(loader, wd, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "stcamlint:", err)
		return 2
	}

	bad := 0
	for _, p := range pkgs {
		for _, d := range analyzers.RunPackage(p, as) {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", relPath(loader.ModuleRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "stcamlint: %d diagnostic(s)\n", bad)
		return 1
	}
	return 0
}

// resolvePackages turns CLI patterns into loaded packages. Supported shapes:
// none (whole module), "./..." (whole module), "./x/..." (subtree), "./x"
// (one package), and full import paths.
func resolvePackages(loader *analyzers.Loader, wd string, patterns []string) ([]*analyzers.Package, error) {
	if len(patterns) == 0 {
		return loader.LoadAll()
	}
	var out []*analyzers.Package
	seen := map[string]bool{}
	add := func(p *analyzers.Package) {
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." {
				pat = "./"
			}
		}
		var ip string
		switch {
		case pat == "./" || pat == ".":
			rel, err := filepath.Rel(loader.ModuleRoot, wd)
			if err != nil {
				return nil, err
			}
			ip = loader.ModulePath
			if rel != "." {
				ip = loader.ModulePath + "/" + filepath.ToSlash(rel)
			}
		case strings.HasPrefix(pat, "./"):
			abs := filepath.Join(wd, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			rel, err := filepath.Rel(loader.ModuleRoot, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("pattern %q escapes the module", pat)
			}
			ip = loader.ModulePath + "/" + filepath.ToSlash(rel)
		default:
			ip = pat
		}
		if recursive {
			all, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			for _, p := range all {
				if p.Path == ip || strings.HasPrefix(p.Path, ip+"/") {
					add(p)
				}
			}
		} else {
			p, err := loader.Load(ip)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	return out, nil
}

func relPath(root, p string) string {
	if r, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return p
}
