package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	mdz "github.com/mdz/mdz"
)

// EntropyStage is one pipeline stage's cost in the entropy benchmark.
type EntropyStage struct {
	NsPerValue float64 `json:"ns_per_value"`
	MBps       float64 `json:"mb_per_s"`
}

// EntropyMethod aggregates one method's entropy-benchmark results.
type EntropyMethod struct {
	Ratio      float64                 `json:"compression_ratio"`
	EncodeMBps float64                 `json:"encode_mb_per_s"`
	DecodeMBps float64                 `json:"decode_mb_per_s"`
	Encode     map[string]EntropyStage `json:"encode_stages"`
	Decode     map[string]EntropyStage `json:"decode_stages"`
}

// EntropyReport is the machine-readable output of RunEntropy, committed as
// BENCH_entropy.json and diffed by `make bench-compare`. Stage numbers come
// from the pipeline telemetry (per-shard stopwatches), wall-clock numbers
// from timing the public API; both are single-worker single-shard so they
// measure the hot path, not the scheduler.
type EntropyReport struct {
	Dataset   string                   `json:"dataset"`
	Snapshots int                      `json:"snapshots"`
	Atoms     int                      `json:"atoms"`
	BatchSize int                      `json:"batch_size"`
	RawBytes  int64                    `json:"raw_bytes"`
	GoVersion string                   `json:"go_version"`
	Methods   map[string]EntropyMethod `json:"methods"`
}

// entropyStageNames maps telemetry histogram suffixes to report keys.
var entropyStages = []struct{ key, encHist, decHist string }{
	{"predict_quant", "compress.stage.predict_quant.ns", "decompress.stage.dequant.ns"},
	{"huffman", "compress.stage.huffman.ns", "decompress.stage.huffman.ns"},
	{"lossless", "compress.stage.lossless.ns", "decompress.stage.lossless.ns"},
}

// RunEntropy benchmarks the compression pipeline per method on one dataset
// analog, with telemetry attributing time to the prediction+quantization,
// Huffman, and lossless-backend stages.
func RunEntropy(cfg Config) (*EntropyReport, error) {
	const name, bs = "Copper-B", 10
	d, err := load(name, cfg)
	if err != nil {
		return nil, err
	}
	var batches [][]mdz.Frame
	for _, b := range d.Batches(bs) {
		fb := make([]mdz.Frame, len(b))
		for i, f := range b {
			fb[i] = mdz.Frame{X: f.X, Y: f.Y, Z: f.Z}
		}
		batches = append(batches, fb)
	}
	raw := int64(d.SizeBytes())
	values := int64(d.M() * d.N() * 3)
	rep := &EntropyReport{
		Dataset:   name,
		Snapshots: d.M(),
		Atoms:     d.N(),
		BatchSize: bs,
		RawBytes:  raw,
		GoVersion: runtime.Version(),
		Methods:   map[string]EntropyMethod{},
	}
	for _, m := range []mdz.Method{mdz.VQ, mdz.VQT, mdz.MT, mdz.ADP} {
		em, err := runEntropyMethod(m, batches, raw, values)
		if err != nil {
			return nil, fmt.Errorf("entropy %v: %w", m, err)
		}
		rep.Methods[m.String()] = em
	}
	return rep, nil
}

func runEntropyMethod(m mdz.Method, batches [][]mdz.Frame, raw, values int64) (EntropyMethod, error) {
	c, err := mdz.NewCompressor(mdz.Config{
		ErrorBound: 1e-4,
		Method:     m,
		Shards:     1,
		Workers:    1,
		Telemetry:  true,
	})
	if err != nil {
		return EntropyMethod{}, err
	}
	blocks := make([][]byte, len(batches))
	var compressed int64
	start := time.Now()
	for i, b := range batches {
		blk, err := c.CompressBatch(b)
		if err != nil {
			return EntropyMethod{}, err
		}
		blocks[i] = blk
		compressed += int64(len(blk))
	}
	encWall := time.Since(start)

	dec := mdz.NewDecompressorWith(mdz.DecompressorOptions{Workers: 1, Telemetry: true})
	start = time.Now()
	for _, blk := range blocks {
		if _, err := dec.DecompressBatch(blk); err != nil {
			return EntropyMethod{}, err
		}
	}
	decWall := time.Since(start)

	em := EntropyMethod{
		Ratio:      float64(raw) / float64(compressed),
		EncodeMBps: mbps(raw, encWall.Nanoseconds()),
		DecodeMBps: mbps(raw, decWall.Nanoseconds()),
		Encode:     map[string]EntropyStage{},
		Decode:     map[string]EntropyStage{},
	}
	// Encode-side stage time is normalized by the telemetry values counter
	// (ADP trial compressions do real stage work on extra values); decode
	// touches each value exactly once.
	encSnap, decSnap := c.Telemetry(), dec.Telemetry()
	encValues := encSnap.Counters["compress.quant.values"]
	if encValues == 0 {
		encValues = values
	}
	for _, s := range entropyStages {
		em.Encode[s.key] = stageCost(encSnap.Histograms[s.encHist].Sum, encValues)
		em.Decode[s.key] = stageCost(decSnap.Histograms[s.decHist].Sum, values)
	}
	return em, nil
}

func stageCost(ns, values int64) EntropyStage {
	if ns == 0 || values == 0 {
		return EntropyStage{}
	}
	return EntropyStage{
		NsPerValue: float64(ns) / float64(values),
		MBps:       mbps(values*8, ns),
	}
}

func mbps(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (float64(ns) / 1e9)
}

// WriteJSON writes the report as indented JSON.
func (r *EntropyReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadEntropyReport parses a report written by WriteJSON.
func ReadEntropyReport(data []byte) (*EntropyReport, error) {
	var r EntropyReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// methodOrder returns the report's methods in stable display order.
func (r *EntropyReport) methodOrder() []string { return methodOrder(r.Methods) }

func methodOrder(methods map[string]EntropyMethod) []string {
	order := []string{"VQ", "VQT", "MT", "ADP"}
	var out []string
	for _, m := range order {
		if _, ok := methods[m]; ok {
			out = append(out, m)
		}
	}
	var extra []string
	for m := range methods {
		found := false
		for _, o := range order {
			if m == o {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, m)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// WriteText renders the report as an aligned human-readable table.
func (r *EntropyReport) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "entropy benchmark: %s (%d snapshots x %d atoms, batch %d, %s)\n",
		r.Dataset, r.Snapshots, r.Atoms, r.BatchSize, r.GoVersion)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %8s %10s %10s   %-28s %-28s\n",
		"method", "CR", "enc MB/s", "dec MB/s", "enc ns/val (pq/huf/ll)", "dec ns/val (pq/huf/ll)")
	for _, m := range methodOrder(r.Methods) {
		em := r.Methods[m]
		fmt.Fprintf(w, "%-6s %8.2f %10.1f %10.1f   %-28s %-28s\n",
			m, em.Ratio, em.EncodeMBps, em.DecodeMBps,
			stageTriple(em.Encode), stageTriple(em.Decode))
	}
	return nil
}

func stageTriple(stages map[string]EntropyStage) string {
	return fmt.Sprintf("%.1f / %.1f / %.1f",
		stages["predict_quant"].NsPerValue,
		stages["huffman"].NsPerValue,
		stages["lossless"].NsPerValue)
}

// CompareEntropy renders old-vs-new deltas of the headline numbers.
// Positive throughput deltas and CR deltas are improvements. Throughput drops past the machine-noise margin print
// WARNING lines; a compression-ratio regression beyond 2% on any method is
// deterministic (same inputs, same algorithm) and returns an error so CI
// fails loudly.
func CompareEntropy(w io.Writer, old, cur *EntropyReport) error {
	if _, err := fmt.Fprintf(w, "entropy benchmark vs baseline (%s -> %s)\n", old.GoVersion, cur.GoVersion); err != nil {
		return err
	}
	var ratioErr error
	fmt.Fprintf(w, "%-6s %18s %22s %22s\n", "method", "CR", "enc MB/s", "dec MB/s")
	for _, m := range methodOrder(cur.Methods) {
		n := cur.Methods[m]
		o, ok := old.Methods[m]
		if !ok {
			fmt.Fprintf(w, "%-6s (no baseline)\n", m)
			continue
		}
		fmt.Fprintf(w, "%-6s %8.2f -> %6.2f %10.1f -> %8.1f %10.1f -> %8.1f  (%+.0f%% dec)\n",
			m, o.Ratio, n.Ratio, o.EncodeMBps, n.EncodeMBps, o.DecodeMBps, n.DecodeMBps,
			pct(o.DecodeMBps, n.DecodeMBps))
		// Wall-clock throughput is advisory (~±10% noise on shared
		// runners): warn, don't fail.
		const margin = 0.85
		if n.EncodeMBps < o.EncodeMBps*margin {
			fmt.Fprintf(w, "WARNING: %s encode throughput regressed %.1f -> %.1f MB/s\n", m, o.EncodeMBps, n.EncodeMBps)
		}
		if n.DecodeMBps < o.DecodeMBps*margin {
			fmt.Fprintf(w, "WARNING: %s decode throughput regressed %.1f -> %.1f MB/s\n", m, o.DecodeMBps, n.DecodeMBps)
		}
		if n.Ratio < o.Ratio*0.98 && ratioErr == nil {
			ratioErr = fmt.Errorf("entropy: %s compression ratio regressed beyond 2%%: %.3f -> %.3f", m, o.Ratio, n.Ratio)
		}
	}
	return ratioErr
}

func pct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}
