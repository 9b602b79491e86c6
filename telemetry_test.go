package mdz

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestTelemetrySnapshotParallel checks snapshot self-consistency with the
// full parallel pipeline engaged (axes × shards × ADP trials on Workers
// goroutines). Run under -race this also proves the instruments are safe at
// every concurrency level.
func TestTelemetrySnapshotParallel(t *testing.T) {
	frames := makeFrames(20, 2000, 3)
	c, err := NewCompressor(Config{ErrorBound: 1e-3, BufferSize: 5, Workers: 4, Shards: 4, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for _, batch := range Batch(frames, 5) {
		blk, err := c.CompressBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}
	s := c.Telemetry()
	if s == nil {
		t.Fatal("telemetry enabled but snapshot is nil")
	}
	// 4 batches × 3 axes; ADP trials do not count as emitted batches.
	if got := s.Counters["compress.axis_batches"]; got != 12 {
		t.Errorf("compress.axis_batches = %d, want 12", got)
	}
	vals, outs := s.Counters["compress.quant.values"], s.Counters["compress.quant.outliers"]
	if vals <= 0 || outs < 0 || outs > vals {
		t.Errorf("scope counters implausible: values=%d outliers=%d", vals, outs)
	}
	// ADP evaluates batches 0 and 1 per axis; every evaluation names a
	// winner, and transitions can never exceed evaluations.
	for _, axis := range []string{"x", "y", "z"} {
		evals := s.Counters["compress.adp."+axis+".evals"]
		if evals < 2 {
			t.Errorf("adp.%s.evals = %d, want >= 2", axis, evals)
		}
		wins := s.Counters["compress.adp."+axis+".win.vq"] +
			s.Counters["compress.adp."+axis+".win.vqt"] +
			s.Counters["compress.adp."+axis+".win.mt"]
		if wins != evals {
			t.Errorf("adp.%s wins = %d, evals = %d", axis, wins, evals)
		}
		if tr := s.Counters["compress.adp."+axis+".transitions"]; tr > evals {
			t.Errorf("adp.%s.transitions = %d > evals %d", axis, tr, evals)
		}
	}
	for _, h := range []string{
		"compress.stage.kmeans_fit.ns", "compress.stage.predict_quant.ns",
		"compress.stage.huffman.ns", "compress.stage.lossless.ns", "compress.stage.batch.ns",
	} {
		if s.Histograms[h].Count == 0 {
			t.Errorf("stage histogram %q has no observations", h)
		}
	}
	if s.Counters["pool.tasks"] == 0 {
		t.Error("pool instruments recorded no tasks despite Workers=4")
	}

	// Decode side.
	d := NewDecompressorWith(DecompressorOptions{Workers: 4, Telemetry: true})
	for _, blk := range blocks {
		if _, err := d.DecompressBatch(blk); err != nil {
			t.Fatal(err)
		}
	}
	ds := d.Telemetry()
	if got := ds.Counters["decompress.axis_batches"]; got != 12 {
		t.Errorf("decompress.axis_batches = %d, want 12", got)
	}
	if ds.Histograms["decompress.stage.dequant.ns"].Count == 0 {
		t.Error("decode dequant histogram empty")
	}
}

// TestTelemetryDoesNotChangeOutput: instrumentation must be observation
// only — identical output bytes with telemetry on and off.
func TestTelemetryDoesNotChangeOutput(t *testing.T) {
	frames := makeFrames(12, 500, 9)
	plain, err := Compress(frames, Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := Compress(frames, Config{ErrorBound: 1e-3, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, instrumented) {
		t.Error("telemetry changed the output bytes")
	}
}

// TestTelemetryDisabled: without Config.Telemetry the accessors must report
// nil, not an empty registry.
func TestTelemetryDisabled(t *testing.T) {
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Telemetry() != nil || c.TelemetryRegistry() != nil {
		t.Error("disabled compressor telemetry must be nil")
	}
	if NewDecompressor().Telemetry() != nil {
		t.Error("disabled decompressor telemetry must be nil")
	}
	// The read-path counters of a Reader without telemetry are nil
	// handles: counting index loads, rebuilds and reseeds costs nothing.
	r := NewReader(bytes.NewReader(nil))
	if r.Telemetry() != nil {
		t.Error("disabled reader telemetry must be nil")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.tel.indexLoads.Inc()
		r.tel.indexRebuilds.Inc()
		r.tel.reseedsCheckpoint.Inc()
		r.tel.reseedsBlock0.Inc()
		r.tel.reseedsUnneeded.Inc()
	}); allocs != 0 {
		t.Errorf("disabled read-path counters allocated %v per op, want 0", allocs)
	}
}

// TestStreamTelemetry checks the Writer's container accounting and that the
// Reader's salvage counters mirror SalvageStats exactly after corruption.
func TestStreamTelemetry(t *testing.T) {
	frames := makeFrames(10, 300, 5)
	var sb bytes.Buffer
	w, err := NewWriter(&sb, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: 2, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ws := w.Telemetry()
	if ws == nil {
		t.Fatal("writer telemetry nil")
	}
	// 5 data blocks + 2 checkpoints (after blocks 2 and 4) + 1 trailer.
	if got := ws.Counters["stream.frames"]; got != 8 {
		t.Errorf("stream.frames = %d, want 8", got)
	}
	if got := ws.Counters["stream.checkpoints"]; got != 2 {
		t.Errorf("stream.checkpoints = %d, want 2", got)
	}
	if ws.Counters["stream.framing.bytes"] <= 0 || ws.Counters["stream.checkpoint.bytes"] <= 0 {
		t.Error("stream overhead counters empty")
	}

	// Corrupt one byte mid-stream, then salvage with telemetry on: the live
	// counters must agree with the SalvageStats the reader reports.
	stream := append([]byte(nil), sb.Bytes()...)
	stream[len(stream)/2] ^= 0xFF
	r := NewReaderWith(bytes.NewReader(stream), ReaderOptions{Resync: true, Telemetry: true})
	if _, err := r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	stats := r.SalvageStats()
	if stats.CorruptFrames == 0 {
		t.Fatal("corruption was not detected")
	}
	rs := r.Telemetry()
	if got := rs.Counters["stream.corrupt_frames"]; got != int64(stats.CorruptFrames) {
		t.Errorf("stream.corrupt_frames = %d, stats say %d", got, stats.CorruptFrames)
	}
	if got := rs.Counters["stream.resyncs"]; got != int64(stats.Resyncs) {
		t.Errorf("stream.resyncs = %d, stats say %d", got, stats.Resyncs)
	}
	if got := rs.Counters["stream.skipped.bytes"]; got != stats.SkippedBytes {
		t.Errorf("stream.skipped.bytes = %d, stats say %d", got, stats.SkippedBytes)
	}
	if got := rs.Counters["stream.skipped_blocks"]; got != int64(stats.SkippedBlocks) {
		t.Errorf("stream.skipped_blocks = %d, stats say %d", got, stats.SkippedBlocks)
	}
	if got := rs.Gauges["stream.dropped_frames"]; got != int64(stats.DroppedFrames) {
		t.Errorf("stream.dropped_frames = %d, stats say %d", got, stats.DroppedFrames)
	}
}

// TestCompressNonFiniteInf is the regression test for silent ±Inf input:
// the first batch must be rejected with the typed ErrNonFinite instead of
// deriving an unusable bound.
func TestCompressNonFiniteInf(t *testing.T) {
	for _, axis := range []int{0, 1, 2} {
		frames := makeFrames(4, 50, 11)
		axisSeries(frames[:1], axis)[0][7] = math.Inf(1 - 2*(axis%2)) // ±Inf
		c, err := NewCompressor(Config{ErrorBound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.CompressBatch(frames)
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("axis %d: Inf input error = %v, want ErrNonFinite", axis, err)
		}
		// The compressor must not be left with partial encoder state: a
		// clean retry with finite data succeeds.
		if _, err := c.CompressBatch(makeFrames(4, 50, 12)); err != nil {
			t.Errorf("axis %d: compressor unusable after rejected batch: %v", axis, err)
		}
	}
}

// TestCompressNaNRoundTrip documents the NaN contract: NaN is not an
// error — it takes the outlier raw-bits path and round-trips bit-exactly.
func TestCompressNaNRoundTrip(t *testing.T) {
	frames := makeFrames(6, 80, 13)
	frames[0].X[3] = math.NaN()
	frames[2].Y[40] = math.NaN()
	stream, err := Compress(frames, Config{ErrorBound: 1e-3, BufferSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if b := math.Float64bits(got[0].X[3]); b != math.Float64bits(frames[0].X[3]) {
		t.Errorf("NaN not preserved bit-exactly: %#x", b)
	}
	if !math.IsNaN(got[2].Y[40]) {
		t.Errorf("NaN position decoded to %v", got[2].Y[40])
	}
	// Neighbours still honor the error bound.
	eps := 1e-3 * frameRange(frames, 0)
	if d := math.Abs(got[0].X[4] - frames[0].X[4]); d > eps {
		t.Errorf("neighbour of NaN out of bound: |%v| > %v", d, eps)
	}
}
