package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestReadReportShape runs the read benchmark at unit-test scale and checks
// the report's invariants: the full grid is present with positive throughput,
// both halves of the random-access measurement ran, the headline point
// exists, and the report survives a JSON round-trip and a self-comparison.
func TestReadReportShape(t *testing.T) {
	rep, err := RunRead(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(readGrid) {
		t.Fatalf("report has %d points, want %d", len(rep.Points), len(readGrid))
	}
	for _, p := range rep.Points {
		if p.MBps <= 0 || p.Speedup <= 0 {
			t.Errorf("w=%d: non-positive measurement %+v", p.Workers, p)
		}
	}
	if rep.HeadlineSpeedup <= 0 {
		t.Fatal("headline point (workers=8) missing from the grid")
	}
	if rep.SerialPrefixMs <= 0 || rep.RangedMs <= 0 || rep.RangedSpeedup <= 0 {
		t.Errorf("random-access half not measured: %+v", rep)
	}
	if rep.WindowLo < 0 || rep.WindowHi <= rep.WindowLo || rep.WindowHi > rep.Snapshots {
		t.Errorf("bad window [%d, %d) over %d snapshots", rep.WindowLo, rep.WindowHi, rep.Snapshots)
	}
	if rep.StreamBytes <= 0 || rep.StreamBytes >= rep.RawBytes {
		t.Errorf("stream not compressed: %d of %d raw bytes", rep.StreamBytes, rep.RawBytes)
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Errorf("host info not recorded: GOMAXPROCS=%d NumCPU=%d", rep.GOMAXPROCS, rep.NumCPU)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReadReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) || back.RangedSpeedup != rep.RangedSpeedup {
		t.Fatal("JSON round-trip changed the report")
	}

	var table, diff strings.Builder
	if err := rep.WriteText(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "headline") {
		t.Error("text table missing headline line")
	}
	// Self-comparison is clean and warn-only by contract: never an error.
	if err := CompareRead(&diff, back, rep); err != nil {
		t.Fatalf("self-compare returned a gating error: %v", err)
	}
}
