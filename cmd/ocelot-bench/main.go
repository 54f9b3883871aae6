// Command ocelot-bench regenerates every table and figure of the paper's
// evaluation section from the Go reproduction, plus the Planner artifact:
// the closed predict-then-transfer loop that make plan-smoke and make
// planner-determinism gate on.
//
// Usage:
//
//	ocelot-bench [-shrink N] [-seed S] [-only "Table VIII,Fig 9"]
//
// Output is the text rendering of each artifact, emitted in the canonical
// order of experiments.Drivers (see docs/ARCHITECTURE.md for the artifact
// index).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ocelot/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ocelot-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ocelot-bench", flag.ContinueOnError)
	shrink := fs.Int("shrink", 16, "divide every dataset dimension by this factor")
	seed := fs.Int64("seed", 42, "experiment seed")
	only := fs.String("only", "", "comma-separated artifact IDs to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := experiments.Scale{Shrink: *shrink, Seed: *seed}

	// The shared registry is the single ordering authority: artifacts are
	// always emitted in its canonical order, so output is deterministic
	// run-to-run whatever order -only lists them in.
	drivers := experiments.Drivers()

	var wanted map[string]bool
	if *only != "" {
		wanted = map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	fmt.Printf("ocelot-bench: reproducing the ICDCS'23 Ocelot evaluation (shrink=%d seed=%d)\n\n",
		*shrink, *seed)
	start := time.Now()
	ran := 0
	for _, d := range drivers {
		if wanted != nil && !wanted[strings.ToLower(d.ID)] {
			continue
		}
		t0 := time.Now()
		res, err := d.Fn(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(res.Text)
		fmt.Printf("[%s regenerated in %.2fs]\n\n", d.ID, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no artifacts matched -only=%q", *only)
	}
	fmt.Printf("done: %d artifacts in %.1fs\n", ran, time.Since(start).Seconds())
	return nil
}
