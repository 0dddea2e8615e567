// Command arbd-bench runs the paper-reproduction experiments (E4, E6-E10,
// E13) and prints each experiment's result table. Serving-path performance
// is not measured here: the multi-process benchmark in benchmark/ (see
// benchmark/README.md) is the repository's one perf harness.
//
// Usage:
//
//	arbd-bench                  # run everything
//	arbd-bench -exp E13         # one experiment
//	arbd-bench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"arbd/internal/repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arbd-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp  = flag.String("exp", "", "run a single experiment (see -list)")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range repro.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	exps := repro.All()
	if *exp != "" {
		e, ok := repro.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		exps = []repro.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		fmt.Println(e.Run().String())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
