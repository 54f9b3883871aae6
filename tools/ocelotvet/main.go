// Command ocelotvet is the project's invariant checker: a multichecker
// running five analyzers that encode the bug classes PRs 2–6 paid to
// learn — alloccap (stream-sized allocations need payload bounds),
// poolsafe (pooled resources release on every path), ctxflow (blocking
// orchestration code observes cancellation), boundres (relative error
// bounds resolve only through sz.Config.AbsoluteBound), and spanend
// (obs spans End on every return path).
//
// Usage:
//
//	ocelotvet [-only a,b] [-list] [packages]
//
// Packages default to ./... relative to the current module. Findings
// print as file:line:col: message [analyzer]; any finding exits 1.
// A finding is waived by a line comment `//ocelotvet:ok <analyzer>
// <reason>` on or directly above the flagged line — the reason is the
// paper trail for why the invariant is safe to break there.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ocelot/tools/ocelotvet/alloccap"
	"ocelot/tools/ocelotvet/boundres"
	"ocelot/tools/ocelotvet/ctxflow"
	"ocelot/tools/ocelotvet/internal/analysis"
	"ocelot/tools/ocelotvet/internal/load"
	"ocelot/tools/ocelotvet/poolsafe"
	"ocelot/tools/ocelotvet/spanend"
)

// Analyzers is the ocelotvet suite in reporting order.
var Analyzers = []*analysis.Analyzer{
	alloccap.Analyzer,
	poolsafe.Analyzer,
	ctxflow.Analyzer,
	boundres.Analyzer,
	spanend.Analyzer,
}

// Targets restricts an analyzer to the packages whose invariant it
// encodes; analyzers absent from the map run everywhere. alloccap's
// taint boundary (exported []byte params) only means "attacker stream"
// in the codec, journal, frame and group-archive parsers; ctxflow's
// blocking rules only bind in the
// orchestration and transport layers.
var Targets = map[string]map[string]bool{
	"alloccap": {
		"ocelot/internal/sz":        true,
		"ocelot/internal/szx":       true,
		"ocelot/internal/huffman":   true,
		"ocelot/internal/ans":       true,
		"ocelot/internal/lossless":  true,
		"ocelot/internal/codec":     true,
		"ocelot/internal/journal":   true,
		"ocelot/internal/integrity": true,
		"ocelot/internal/grouping":  true,
	},
	"ctxflow": {
		"ocelot/internal/pipeline": true,
		"ocelot/internal/core":     true,
		"ocelot/internal/serve":    true,
		"ocelot/internal/gridftp":  true,
	},
}

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *listFlag {
		for _, a := range Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	selected := Analyzers
	if *onlyFlag != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
		selected = nil
		for _, a := range Analyzers {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "ocelotvet: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocelotvet: %v\n", err)
		os.Exit(2)
	}
	paths, dirs, err := load.List(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ocelotvet: %v\n", err)
		os.Exit(2)
	}

	loader := load.NewLoader()
	findings := 0
	for i, path := range paths {
		var run []*analysis.Analyzer
		for _, a := range selected {
			if t, scoped := Targets[a.Name]; scoped && !t[path] {
				continue
			}
			run = append(run, a)
		}
		if len(run) == 0 {
			continue
		}
		pkg, err := loader.Dir(dirs[i], path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ocelotvet: %v\n", err)
			os.Exit(2)
		}
		for _, a := range run {
			diags, err := analysis.Run(a, loader.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ocelotvet: %v\n", err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Printf("%s: %s [%s]\n", loader.Fset.Position(d.Pos), d.Message, a.Name)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ocelotvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
