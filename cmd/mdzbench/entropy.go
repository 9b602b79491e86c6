package main

import (
	"fmt"
	"os"

	"github.com/mdz/mdz/internal/bench"
)

// runEntropy runs the entropy-stage benchmark, prints the human-readable
// table, and optionally writes the JSON report and/or diffs the run against
// a previously committed report.
func runEntropy(jsonPath, comparePath string, cfg bench.Config) error {
	rep, err := bench.RunEntropy(cfg)
	if err != nil {
		return err
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if comparePath != "" {
		data, err := os.ReadFile(comparePath)
		if err != nil {
			return err
		}
		old, err := bench.ReadEntropyReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", comparePath, err)
		}
		fmt.Println()
		return bench.CompareEntropy(os.Stdout, old, rep)
	}
	return nil
}
