package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	mdz "github.com/mdz/mdz"
)

// ScalePoint is one (Workers, Shards) grid point of the scaling benchmark:
// the same trajectory compressed with full ADP trials on every shard
// (baseline) and with ADPSampleShards=1 alone (tuned), on the same worker
// pool and shard layout — a single-knob ablation.
type ScalePoint struct {
	Workers       int     `json:"workers"`
	Shards        int     `json:"shards"`
	BaselineMBps  float64 `json:"baseline_mb_per_s"`
	TunedMBps     float64 `json:"tuned_mb_per_s"`
	Speedup       float64 `json:"speedup"`
	BaselineRatio float64 `json:"baseline_ratio"`
	TunedRatio    float64 `json:"tuned_ratio"`
}

// ScaleReport is the machine-readable output of RunScale, committed as
// BENCH_scale.json. Throughput is end-to-end Writer compress throughput
// (raw MB/s into io.Discard), best of Repeats runs per configuration.
// GOMAXPROCS and NumCPU are recorded because the worker grid only buys
// wall-clock parallelism when the host actually has the cores; on a
// single-core host the speedup comes from the amortized-ADP knob, not from
// scheduling.
type ScaleReport struct {
	Dataset         string       `json:"dataset"`
	Snapshots       int          `json:"snapshots"`
	Atoms           int          `json:"atoms"`
	BatchSize       int          `json:"batch_size"`
	RawBytes        int64        `json:"raw_bytes"`
	GoVersion       string       `json:"go_version"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	NumCPU          int          `json:"num_cpu"`
	AdaptInterval   int          `json:"adapt_interval"`
	ADPSampleShards int          `json:"adp_sample_shards"`
	Repeats         int          `json:"repeats"`
	Points          []ScalePoint `json:"points"`
	// HeadlineSpeedup is tuned/baseline at Workers=8, Shards=8 — the
	// acceptance number for the amortized-ADP knob.
	HeadlineSpeedup float64 `json:"headline_speedup"`
}

// Tuned-knob values the scale benchmark measures against the baseline, and
// the ADP re-evaluation period it runs both sides under. The short interval
// makes trial cost a first-order term, which is the regime the amortized
// knob exists for; production default (50) re-evaluates far less often.
const (
	scaleAdaptInterval = 2
	scaleSampleShards  = 1
	scaleRepeats       = 2
)

// scaleGrid is the benchmark's (Workers, Shards) matrix.
var scaleGrid = []struct{ workers, shards int }{
	{1, 1}, {2, 1}, {4, 1}, {8, 1},
	{1, 8}, {2, 8}, {4, 8}, {8, 8},
}

// RunScale measures multi-worker Writer compress throughput over the
// Workers x Shards grid, baseline knobs vs tuned knobs per point.
func RunScale(cfg Config) (*ScaleReport, error) {
	const name, bs = "Copper-B", 10
	d, err := load(name, cfg)
	if err != nil {
		return nil, err
	}
	frames := make([]mdz.Frame, d.M())
	for i, f := range d.Frames {
		frames[i] = mdz.Frame{X: f.X, Y: f.Y, Z: f.Z}
	}
	raw := int64(d.SizeBytes())
	rep := &ScaleReport{
		Dataset:         name,
		Snapshots:       d.M(),
		Atoms:           d.N(),
		BatchSize:       bs,
		RawBytes:        raw,
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		AdaptInterval:   scaleAdaptInterval,
		ADPSampleShards: scaleSampleShards,
		Repeats:         scaleRepeats,
	}
	for _, g := range scaleGrid {
		base := mdz.Config{
			ErrorBound: 1e-4, Method: mdz.ADP, BufferSize: bs,
			AdaptInterval: scaleAdaptInterval, CheckpointInterval: 4,
			Workers: g.workers, Shards: g.shards,
		}
		tuned := base
		tuned.ADPSampleShards = scaleSampleShards

		bMBps, bRatio, err := scaleRun(base, frames, raw)
		if err != nil {
			return nil, fmt.Errorf("scale baseline w=%d k=%d: %w", g.workers, g.shards, err)
		}
		tMBps, tRatio, err := scaleRun(tuned, frames, raw)
		if err != nil {
			return nil, fmt.Errorf("scale tuned w=%d k=%d: %w", g.workers, g.shards, err)
		}
		pt := ScalePoint{
			Workers: g.workers, Shards: g.shards,
			BaselineMBps: bMBps, TunedMBps: tMBps,
			BaselineRatio: bRatio, TunedRatio: tRatio,
		}
		if bMBps > 0 {
			pt.Speedup = tMBps / bMBps
		}
		rep.Points = append(rep.Points, pt)
		if g.workers == 8 && g.shards == 8 {
			rep.HeadlineSpeedup = pt.Speedup
		}
	}
	return rep, nil
}

// scaleRun times one configuration: best wall clock of scaleRepeats full
// Writer runs into io.Discard, each on a fresh Writer so ADP state starts
// cold. Returns raw MB/s and the compression ratio.
func scaleRun(cfg mdz.Config, frames []mdz.Frame, raw int64) (mbPerS, ratio float64, err error) {
	var bestNS int64
	var comp int64
	for rep := 0; rep < scaleRepeats; rep++ {
		w, err := mdz.NewWriter(io.Discard, cfg)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for _, f := range frames {
			if err := w.WriteFrame(f); err != nil {
				return 0, 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if bestNS == 0 || ns < bestNS {
			bestNS = ns
		}
		_, comp = w.Stats()
	}
	if comp > 0 {
		ratio = float64(raw) / float64(comp)
	}
	return mbps(raw, bestNS), ratio, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadScaleReport parses a report written by WriteJSON.
func ReadScaleReport(data []byte) (*ScaleReport, error) {
	var r ScaleReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteText renders the report as an aligned human-readable table.
func (r *ScaleReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "scale benchmark: %s (%d snapshots x %d atoms, batch %d, %s, GOMAXPROCS=%d/%d CPUs)\n"+
		"tuned knob: adp_sample_shards=%d, ADP re-eval every %d batches\n",
		r.Dataset, r.Snapshots, r.Atoms, r.BatchSize, r.GoVersion, r.GOMAXPROCS, r.NumCPU,
		r.ADPSampleShards, r.AdaptInterval)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-7s %14s %12s %9s %10s %10s\n",
		"workers", "shards", "base MB/s", "tuned MB/s", "speedup", "base CR", "tuned CR")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8d %-7d %14.1f %12.1f %8.2fx %10.2f %10.2f\n",
			p.Workers, p.Shards, p.BaselineMBps, p.TunedMBps, p.Speedup, p.BaselineRatio, p.TunedRatio)
	}
	fmt.Fprintf(w, "headline (workers=8 shards=8): %.2fx\n", r.HeadlineSpeedup)
	return nil
}

// CompareScale renders old-vs-new deltas. Scaling throughput is wall-clock
// on whatever host runs it, so every check is warn-only: WARNING lines for
// per-point tuned-throughput drops past the noise margin and for a headline
// speedup that fell below the acceptance bar. It never returns a gating
// error — CI treats the scale diff as advisory.
func CompareScale(w io.Writer, old, cur *ScaleReport) error {
	if _, err := fmt.Fprintf(w, "scale benchmark vs baseline (%s GOMAXPROCS=%d -> %s GOMAXPROCS=%d)\n",
		old.GoVersion, old.GOMAXPROCS, cur.GoVersion, cur.GOMAXPROCS); err != nil {
		return err
	}
	oldPts := map[[2]int]ScalePoint{}
	for _, p := range old.Points {
		oldPts[[2]int{p.Workers, p.Shards}] = p
	}
	const margin = 0.85
	for _, p := range cur.Points {
		o, ok := oldPts[[2]int{p.Workers, p.Shards}]
		if !ok {
			fmt.Fprintf(w, "w=%d k=%d: (no baseline point)\n", p.Workers, p.Shards)
			continue
		}
		fmt.Fprintf(w, "w=%d k=%d: tuned %8.1f -> %8.1f MB/s (%+.0f%%), speedup %.2fx -> %.2fx\n",
			p.Workers, p.Shards, o.TunedMBps, p.TunedMBps, pct(o.TunedMBps, p.TunedMBps), o.Speedup, p.Speedup)
		if p.TunedMBps < o.TunedMBps*margin {
			fmt.Fprintf(w, "WARNING: w=%d k=%d tuned throughput regressed %.1f -> %.1f MB/s\n",
				p.Workers, p.Shards, o.TunedMBps, p.TunedMBps)
		}
	}
	fmt.Fprintf(w, "headline: %.2fx -> %.2fx\n", old.HeadlineSpeedup, cur.HeadlineSpeedup)
	if cur.HeadlineSpeedup < 1.5 {
		fmt.Fprintf(w, "WARNING: headline speedup %.2fx below the 1.5x acceptance bar\n", cur.HeadlineSpeedup)
	}
	return nil
}
