package main

import (
	"fmt"
	"os"

	"github.com/mdz/mdz/internal/bench"
)

// runRead runs the fast-read-path benchmark (ranged access vs serial prefix
// decode, plus the full-decode Workers grid), prints the table, and
// optionally writes the JSON report and/or diffs (warn-only) against a
// previously committed report.
func runRead(jsonPath, comparePath string, cfg bench.Config) error {
	rep, err := bench.RunRead(cfg)
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
		old, err := bench.ReadReadReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", comparePath, err)
		}
		fmt.Println()
		return bench.CompareRead(os.Stdout, old, rep)
	}
	return nil
}
