package main

import (
	"runtime"
	"time"

	mdz "github.com/mdz/mdz"
)

// perLayerMetrics lists every metric a traced run prints, on every
// workload; a layer the workload leaves idle reports 0. Stage times read
// from telemetry histograms are busy time summed over pool workers, hence
// the "busy-ns" unit; "ns" units are wall time on the calling goroutine.
// Layer-intrinsic costs are per value the layer coded; path costs
// (unattributed, self) are per value the path delivered to its caller.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.encode.wall_ns_per_value", "ns/value"},
	{"core.decode.wall_ns_per_value", "ns/value"},
	{"writer.overhead_ns_per_value", "ns/value"},
	{"reader.overhead_ns_per_value", "ns/value"},
	{"core.encode.predict_quant_ns_per_value", "busy-ns/value"},
	{"huffman.encode_ns_per_value", "busy-ns/value"},
	{"lossless.encode_ns_per_value", "busy-ns/value"},
	{"core.encode.kmeans_fit_ns_per_value", "busy-ns/value"},
	{"core.decode.dequant_ns_per_value", "busy-ns/value"},
	{"huffman.decode_ns_per_value", "busy-ns/value"},
	{"lossless.decode_ns_per_value", "busy-ns/value"},
	{"core.quant.outlier_rate", "ratio"},
	{"lossless.out_in_ratio", "ratio"},
	{"writer.overhead_bytes_share", "ratio"},
	{"core.adp.evals_per_batch", "count"},
	{"pool.tasks_per_run", "count"},
	{"pool.helper_spawns_per_batch", "count"},
	{"pool.serial_degradations", "count"},
	{"core.encode.alloc_bytes_per_value", "B/value"},
	{"io.sink_write_ns_per_value", "ns/value"},
	{"io.sink_writes", "count"},
	{"seek.seek_ms_p50", "ms"},
	{"seek.seek_ms_p99", "ms"},
	{"seek.frames_ms_p50", "ms"},
	{"io.source_bytes_per_op", "B"},
	{"io.source_reads_per_op", "count"},
	{"io.source_seeks_per_op", "count"},
	{"seek.read_amplification", "ratio"},
	{"daemon.create_ms_p50", "ms"},
	{"daemon.create_ms_p99", "ms"},
	{"daemon.ingest_ms_p50", "ms"},
	{"daemon.ingest_ms_p99", "ms"},
	{"daemon.close_ms_p50", "ms"},
	{"daemon.close_ms_p99", "ms"},
	{"daemon.read_ms_p50", "ms"},
	{"daemon.read_ms_p99", "ms"},
	{"daemon.delete_ms_p50", "ms"},
	{"daemon.delete_ms_p99", "ms"},
	{"daemon.close_share", "ratio"},
	{"daemon.read_http_overhead_ms_p50", "ms"},
	{"encode.unattributed_ns_per_value", "ns/value"},
	{"decode.unattributed_ns_per_value", "ns/value"},
	{"range.unattributed_ns_per_value", "ns/value"},
	{"session.unattributed_ns_per_value", "ns/value"},
	{"writer.self_ns_per_value", "ns/value"},
	{"reader.self_ns_per_value", "ns/value"},
	{"seek.self_ns_per_value", "ns/value"},
	{"core.self_ns_per_value", "ns/value"},
	{"io.self_ns_per_value", "ns/value"},
	{"daemon.self_ns_per_value", "ns/value"},
	{"trace.overhead_share", "ratio"},
}

// emitPerLayer sets every per-layer metric from p, 0 where p has none.
func (r *run) emitPerLayer(p map[string]float64) {
	for _, m := range perLayerMetrics {
		r.set(m.name, m.unit, p[m.name])
	}
}

// telTotals sums telemetry snapshots: counters, gauges and histogram sums
// under their registry names.
type telTotals map[string]float64

func (t telTotals) add(s *mdz.TelemetrySnapshot) {
	if s == nil {
		return
	}
	for k, v := range s.Counters {
		t[k] += float64(v)
	}
	for k, h := range s.Histograms {
		t[k] += float64(h.Sum)
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload left idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecResult is what one codec-only pass measured.
type codecResult struct {
	encNs, decNs float64 // wall ns in CompressBatch / DecompressBatch
	values       float64 // values coded each way
	blocks       float64
	blockBytes   float64 // Σ block sizes, i.e. the stream minus framing
	allocBytes   float64 // heap allocated by the CompressBatch calls
	passes       float64
}

// codecPass compresses frames in batches of bs with a fresh Compressor and
// decodes the blocks with a fresh Decompressor, as span "codec" with one
// core.CompressBatch / core.DecompressBatch child per block. It checks the
// decoded frames against the source and adds both telemetry registries to
// tel. The pass is the only place the core layer is timed on its own; the
// paths subtract its per-value cost from the calls that contain it.
func codecPass(r *run, frames []mdz.Frame, bs int, b bounds, tr *tracer, tel telTotals) (codecResult, error) {
	var res codecResult
	c, err := mdz.NewCompressor(mdz.Config{ErrorBound: errorBound, BufferSize: bs, Telemetry: true})
	if err != nil {
		return res, err
	}
	batches := mdz.Batch(frames, bs)
	blks := make([][]byte, len(batches))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("codec")
	for i, batch := range batches {
		id := tr.begin("core.CompressBatch")
		t0 := time.Now()
		blks[i], err = c.CompressBatch(batch)
		res.encNs += float64(time.Since(t0))
		tr.end(id)
		if err != nil {
			tr.end(root)
			return res, err
		}
	}
	tr.end(root)
	runtime.ReadMemStats(&ms1)
	res.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)

	d := mdz.NewDecompressorWith(mdz.DecompressorOptions{Telemetry: true})
	var bad error
	root = tr.begin("codec")
	for i, blk := range blks {
		id := tr.begin("core.DecompressBatch")
		t0 := time.Now()
		out, err := d.DecompressBatch(blk)
		res.decNs += float64(time.Since(t0))
		tr.end(id)
		if err != nil {
			tr.end(root)
			return res, err
		}
		if err := r.chk.within(out, batches[i], b); err != nil && bad == nil {
			bad = err
		}
		res.blockBytes += float64(len(blk))
	}
	tr.end(root)
	r.chk.record(bad)
	tel.add(c.Telemetry())
	tel.add(d.Telemetry())
	res.values = float64(len(frames) * frames[0].N() * 3)
	res.blocks = float64(len(blks))
	res.passes = 1
	return res, nil
}

// codecMetrics fills the layer-intrinsic metrics every workload reports
// from its codec-only passes.
func codecMetrics(p map[string]float64, cr codecResult, tel telTotals) {
	v := cr.values
	p["core.encode.wall_ns_per_value"] = ratio(cr.encNs, v)
	p["core.decode.wall_ns_per_value"] = ratio(cr.decNs, v)
	p["core.encode.predict_quant_ns_per_value"] = ratio(tel["compress.stage.predict_quant.ns"], v)
	p["huffman.encode_ns_per_value"] = ratio(tel["compress.stage.huffman.ns"], v)
	p["lossless.encode_ns_per_value"] = ratio(tel["compress.stage.lossless.ns"], v)
	p["core.encode.kmeans_fit_ns_per_value"] = ratio(tel["compress.stage.kmeans_fit.ns"], v)
	p["core.decode.dequant_ns_per_value"] = ratio(tel["decompress.stage.dequant.ns"], v)
	p["huffman.decode_ns_per_value"] = ratio(tel["decompress.stage.huffman.ns"], v)
	p["lossless.decode_ns_per_value"] = ratio(tel["decompress.stage.lossless.ns"], v)
	p["core.quant.outlier_rate"] = ratio(tel["compress.quant.outliers"], tel["compress.quant.values"])
	p["lossless.out_in_ratio"] = ratio(tel["compress.lossless.out.bytes"], tel["compress.lossless.in.bytes"])
	evals := tel["compress.adp.x.evals"] + tel["compress.adp.y.evals"] + tel["compress.adp.z.evals"]
	p["core.adp.evals_per_batch"] = ratio(evals, tel["compress.axis_batches"])
	p["pool.tasks_per_run"] = ratio(tel["pool.tasks"], tel["pool.runs"])
	p["pool.helper_spawns_per_batch"] = ratio(tel["pool.helper_spawns"], 2*cr.blocks)
	p["pool.serial_degradations"] = ratio(tel["pool.serial_degradations"], cr.passes)
	p["core.encode.alloc_bytes_per_value"] = ratio(cr.allocBytes, v)
}

// add accumulates another pass into cr.
func (cr *codecResult) add(o codecResult) {
	cr.encNs += o.encNs
	cr.decNs += o.decNs
	cr.values += o.values
	cr.blocks += o.blocks
	cr.blockBytes += o.blockBytes
	cr.allocBytes += o.allocBytes
	cr.passes += o.passes
}
