package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	mdz "github.com/mdz/mdz"
)

// ReadPoint is one Workers grid point of the read benchmark: full-stream
// decode throughput through the Reader with the given worker count.
// Speedup is against the serial point (Workers 1).
type ReadPoint struct {
	Workers int     `json:"workers"`
	MBps    float64 `json:"mb_per_s"`
	Speedup float64 `json:"speedup"`
}

// ReadReport is the machine-readable output of RunRead, committed as
// BENCH_read.json. It measures the two halves of the fast read path on an
// indexed stream: random access (ReadRange of a tail window vs decoding the
// serial prefix to reach it) and parallel full decode (the Workers grid).
// Decoded frames are byte-identical across every configuration, so the
// numbers differ only in wall clock.
type ReadReport struct {
	Dataset     string `json:"dataset"`
	Snapshots   int    `json:"snapshots"`
	Atoms       int    `json:"atoms"`
	BatchSize   int    `json:"batch_size"`
	RawBytes    int64  `json:"raw_bytes"`
	StreamBytes int64  `json:"stream_bytes"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Repeats     int    `json:"repeats"`

	// Random access: the half-open tail window [WindowLo, WindowHi) — about
	// 1% of the stream — read by seeking through the index (RangedMs) vs by
	// decoding every prefix block serially until the window is reached
	// (SerialPrefixMs). RangedSpeedup is their ratio; the acceptance bar is
	// 10x.
	WindowLo       int     `json:"window_lo"`
	WindowHi       int     `json:"window_hi"`
	SerialPrefixMs float64 `json:"serial_prefix_ms"`
	RangedMs       float64 `json:"ranged_ms"`
	RangedSpeedup  float64 `json:"ranged_speedup"`

	Points []ReadPoint `json:"points"`
	// HeadlineSpeedup is the full-decode speedup at the workers=8 grid
	// point.
	HeadlineSpeedup float64 `json:"headline_speedup"`
}

const readRepeats = 3

// readGrid is the Workers axis; 1 is the serial baseline every speedup is
// normalized against.
var readGrid = []int{1, 2, 4, 8}

// readTile repeats the generated trajectory to lengthen the stream: random
// access is only interesting when the serial prefix is long, and the dataset
// analogs are sized for compression studies, not for seek distance.
const readTile = 4

// RunRead measures the fast read path over an indexed in-memory stream.
func RunRead(cfg Config) (*ReadReport, error) {
	const name, bs = "Copper-B", 10
	d, err := load(name, cfg)
	if err != nil {
		return nil, err
	}
	frames := make([]mdz.Frame, 0, d.M()*readTile)
	for t := 0; t < readTile; t++ {
		for _, f := range d.Frames {
			frames = append(frames, mdz.Frame{X: f.X, Y: f.Y, Z: f.Z})
		}
	}
	raw := int64(d.SizeBytes()) * readTile

	// CheckpointInterval 1 puts a resume point after every batch, so a seek
	// re-decodes at most one batch of prefix — the configuration a stream
	// written for random access would use.
	var sb bytes.Buffer
	w, err := mdz.NewWriter(&sb, mdz.Config{
		ErrorBound: 1e-4, Method: mdz.ADP, BufferSize: bs,
		CheckpointInterval: 1, SeekIndex: true,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	stream := sb.Bytes()

	rep := &ReadReport{
		Dataset:     name,
		Snapshots:   len(frames),
		Atoms:       d.N(),
		BatchSize:   bs,
		RawBytes:    raw,
		StreamBytes: int64(len(stream)),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Repeats:     readRepeats,
	}

	// Random access: a ~1% window at the stream tail.
	win := len(frames) / 100
	if win < 1 {
		win = 1
	}
	rep.WindowLo, rep.WindowHi = len(frames)-win, len(frames)

	serialNS, err := bestOf(func() error {
		r := mdz.NewReader(bytes.NewReader(stream))
		delivered := 0
		for delivered < rep.WindowHi {
			if _, err := r.ReadFrame(); err != nil {
				return err
			}
			delivered++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read bench serial prefix: %w", err)
	}
	rangedNS, err := bestOf(func() error {
		r := mdz.NewReader(bytes.NewReader(stream))
		got, err := r.ReadRange(rep.WindowLo, rep.WindowHi)
		if err != nil {
			return err
		}
		if len(got) != win {
			return fmt.Errorf("ranged read returned %d frames, want %d", len(got), win)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("read bench ranged: %w", err)
	}
	rep.SerialPrefixMs = float64(serialNS) / 1e6
	rep.RangedMs = float64(rangedNS) / 1e6
	if rangedNS > 0 {
		rep.RangedSpeedup = float64(serialNS) / float64(rangedNS)
	}

	// Full-stream decode over the Workers grid.
	var serialMBps float64
	for _, workers := range readGrid {
		ns, err := bestOf(func() error {
			got, err := mdz.NewReaderWorkers(bytes.NewReader(stream), workers).ReadAll()
			if err != nil {
				return err
			}
			if len(got) != len(frames) {
				return fmt.Errorf("decoded %d frames, want %d", len(got), len(frames))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("read bench w=%d: %w", workers, err)
		}
		pt := ReadPoint{Workers: workers, MBps: mbps(raw, ns)}
		if workers == 1 {
			serialMBps = pt.MBps
		}
		if serialMBps > 0 {
			pt.Speedup = pt.MBps / serialMBps
		}
		rep.Points = append(rep.Points, pt)
		if workers == 8 {
			rep.HeadlineSpeedup = pt.Speedup
		}
	}
	return rep, nil
}

// bestOf times f readRepeats times and returns the best wall clock.
func bestOf(f func() error) (int64, error) {
	var best int64
	for i := 0; i < readRepeats; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ReadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReadReport parses a report written by WriteJSON.
func ReadReadReport(data []byte) (*ReadReport, error) {
	var r ReadReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteText renders the report as an aligned human-readable table.
func (r *ReadReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "read benchmark: %s (%d snapshots x %d atoms, batch %d, %s, GOMAXPROCS=%d/%d CPUs)\n"+
		"random access window [%d, %d): serial prefix %.2f ms, ranged %.2f ms (%.0fx)\n",
		r.Dataset, r.Snapshots, r.Atoms, r.BatchSize, r.GoVersion, r.GOMAXPROCS, r.NumCPU,
		r.WindowLo, r.WindowHi, r.SerialPrefixMs, r.RangedMs, r.RangedSpeedup)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %12s %9s\n", "workers", "MB/s", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8d %12.1f %8.2fx\n", p.Workers, p.MBps, p.Speedup)
	}
	fmt.Fprintf(w, "headline (workers=8): %.2fx\n", r.HeadlineSpeedup)
	return nil
}

// CompareRead renders old-vs-new deltas. Decode throughput is wall-clock on
// whatever host runs it, so every check is warn-only: WARNING lines for
// grid points that regressed past the noise margin and for a ranged-access
// speedup under the 10x acceptance bar. It never returns a gating error —
// CI treats the read diff as advisory.
func CompareRead(w io.Writer, old, cur *ReadReport) error {
	if _, err := fmt.Fprintf(w, "read benchmark vs baseline (%s GOMAXPROCS=%d -> %s GOMAXPROCS=%d)\n",
		old.GoVersion, old.GOMAXPROCS, cur.GoVersion, cur.GOMAXPROCS); err != nil {
		return err
	}
	fmt.Fprintf(w, "ranged access: %.0fx -> %.0fx\n", old.RangedSpeedup, cur.RangedSpeedup)
	if cur.RangedSpeedup < 10 {
		fmt.Fprintf(w, "WARNING: ranged-access speedup %.1fx below the 10x acceptance bar\n", cur.RangedSpeedup)
	}
	oldPts := map[int]ReadPoint{}
	for _, p := range old.Points {
		oldPts[p.Workers] = p
	}
	const margin = 0.85
	for _, p := range cur.Points {
		o, ok := oldPts[p.Workers]
		if !ok {
			fmt.Fprintf(w, "w=%d: (no baseline point)\n", p.Workers)
			continue
		}
		fmt.Fprintf(w, "w=%d: %8.1f -> %8.1f MB/s (%+.0f%%)\n",
			p.Workers, o.MBps, p.MBps, pct(o.MBps, p.MBps))
		if p.MBps < o.MBps*margin {
			fmt.Fprintf(w, "WARNING: w=%d decode throughput regressed %.1f -> %.1f MB/s\n",
				p.Workers, o.MBps, p.MBps)
		}
	}
	fmt.Fprintf(w, "headline: %.2fx -> %.2fx\n", old.HeadlineSpeedup, cur.HeadlineSpeedup)
	return nil
}
