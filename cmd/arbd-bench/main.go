// Command arbd-bench runs the derived experiment suite E1-E13 and prints
// each experiment's result table. Serving-path performance is not measured
// here: the multi-process benchmark in benchmark/ (see benchmark/README.md)
// is the repository's one perf harness.
//
// Usage:
//
//	arbd-bench                  # run everything
//	arbd-bench -exp E5          # one experiment
//	arbd-bench -smoke           # tiny-parameter pass over every experiment
//	arbd-bench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"arbd/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arbd-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp   = flag.String("exp", "", "run a single experiment (E1..E13)")
		list  = flag.Bool("list", false, "list experiments and exit")
		smoke = flag.Bool("smoke", false, "run tiny-parameter smoke variants")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	exps := bench.All()
	if *exp != "" {
		e, ok := bench.ByID(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *exp)
		}
		exps = []bench.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		tbl := e.Run
		if *smoke {
			tbl = e.SmokeRun
		}
		fmt.Println(tbl().String())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
