// Command mdzbench regenerates the paper's evaluation tables and figures on
// the synthesized dataset analogs.
//
// Usage:
//
//	mdzbench -exp fig12               # one experiment
//	mdzbench -exp all                 # everything (slow)
//	mdzbench -list                    # show experiment ids
//	mdzbench -exp fig13 -datascale 0.5 # smaller datasets
//	mdzbench -exp tab5 -csv           # machine-readable output
//
// The entropy-stage benchmark (per-stage MB/s, ns/value and compression
// ratio per method) has its own mode:
//
//	mdzbench -entropy                          # human-readable table
//	mdzbench -entropy -json BENCH_entropy.json # also write the JSON report
//	mdzbench -entropy -compare BENCH_entropy.json # diff against a report
//
// The multi-worker scaling benchmark (Writer compress MB/s over the
// Workers x Shards grid, baseline vs ADPSampleShards=1):
//
//	mdzbench -scale                         # human-readable table
//	mdzbench -scale -json BENCH_scale.json  # also write the JSON report
//	mdzbench -scale -compare BENCH_scale.json # warn-only diff against a report
//
// The fast-read-path benchmark (ReadRange of a tail window vs serial prefix
// decode on an indexed stream, plus full decode over the Workers grid):
//
//	mdzbench -read                          # human-readable table
//	mdzbench -read -json BENCH_read.json    # also write the JSON report
//	mdzbench -read -compare BENCH_read.json # warn-only diff against a report
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mdz/mdz/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (fig3..fig16, tab2..tab7) or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("datascale", 1.0, "dataset scale factor")
	seed := flag.Int64("seed", 42, "dataset generation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := flag.String("out", "", "also write <exp>.csv files into this directory")
	entropy := flag.Bool("entropy", false, "run the entropy-stage benchmark")
	scaleBench := flag.Bool("scale", false, "run the multi-worker scaling benchmark (Workers x Shards grid)")
	readBench := flag.Bool("read", false, "run the fast-read-path benchmark (ranged access + workers grid)")
	jsonPath := flag.String("json", "", "with -entropy/-scale/-read: write the machine-readable report to this path")
	compare := flag.String("compare", "", "with -entropy/-scale/-read: diff the run against a committed report")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*entropy, *scaleBench, *readBench} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "mdzbench: -entropy, -scale and -read are mutually exclusive")
		os.Exit(2)
	}
	if *readBench {
		if err := runRead(*jsonPath, *compare, bench.Config{Scale: *scale, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "mdzbench:", err)
			os.Exit(1)
		}
		return
	}
	if *scaleBench {
		if err := runScale(*jsonPath, *compare, bench.Config{Scale: *scale, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "mdzbench:", err)
			os.Exit(1)
		}
		return
	}
	if *entropy {
		if err := runEntropy(*jsonPath, *compare, bench.Config{Scale: *scale, Seed: *seed}); err != nil {
			fmt.Fprintln(os.Stderr, "mdzbench:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range bench.Experiments() {
			fmt.Printf("%-6s %s\n", id, bench.Title(id))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "mdzbench: -exp or -list required (see -h)")
		os.Exit(2)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed}
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdzbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			if _, err := rep.WriteTo(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mdzbench:", err)
				os.Exit(1)
			}
			fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mdzbench:", err)
				os.Exit(1)
			}
		}
	}
}
