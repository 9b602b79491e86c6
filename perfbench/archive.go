package main

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"time"

	mdz "github.com/mdz/mdz"
)

// archiveBatch is the archive's BufferSize, in snapshots per block.
const archiveBatch = 10

// archive is the archive-solid workload: an in-situ Writer archiving a
// vibrating FCC crystal into memory, then a full sequential read back.
type archive struct {
	r      *run
	frames []mdz.Frame
	b      bounds
	raw    float64
	buf    bytes.Buffer
}

// archivePasses collects the per-pass measurements of one loop.
type archivePasses struct {
	encMBps, decMBps samples
	blockMs          samples // ReadFrame calls that decoded a block
	wallMs           samples // encode + decode per pass
	streamBytes      float64
	sinkWrites       float64
	srcReads         float64
	srcSeeks         float64
	srcBytes         float64
}

func runArchive(r *run) error {
	a := &archive{r: r}
	if err := r.timeSetups(func() error {
		a.frames = nil
		a.frames = fccSolid(r.seed, r.sz.solidCells, r.sz.solidSnaps)
		a.b = boundsOf(a.frames, archiveBatch, errorBound)
		a.raw = float64(rawBytes(a.frames))
		return nil
	}); err != nil {
		return err
	}
	r.inputStamp(a.frames[0].N(), len(a.frames), archiveBatch)
	// The first passes of a process run slow while the heap grows to its
	// working size; they are not measured.
	var warm archivePasses
	for i := 0; i < 2; i++ {
		a.pass(nil, &warm)
	}
	if !r.traced {
		var m archivePasses
		cpu := cpuTime()
		a.loop(r.window(), nil, &m)
		r.setCPU(cpuTime()-cpu, float64(len(m.wallMs)*len(a.frames)*a.frames[0].N()*3))
		r.note("encode MB/s: %s", m.encMBps.timing())
		r.note("decode MB/s: %s", m.decMBps.timing())
		r.note("block decode ms: %s", m.blockMs.timing())
		r.set("encode_mbps", "MB/s", m.encMBps.median())
		r.set("decode_mbps", "MB/s", m.decMBps.median())
		r.set("read_p50_ms", "ms", m.blockMs.median())
		r.set("compression_ratio", "ratio", a.raw/m.streamBytes)
		r.set("nrmse", "ratio", r.chk.nrmse())
		return nil
	}

	// Traced run: half the window untraced as the overhead baseline, half
	// traced, each traced pass paired with a codec-only pass.
	var base, m archivePasses
	a.loop(r.window()/2, nil, &base)
	tr := newTracer(time.Now(), new(atomic.Int64))
	tel := telTotals{}
	var cr codecResult
	deadline := time.Now().Add(r.window() / 2)
	for first := true; first || time.Now().Before(deadline); first = false {
		res, err := codecPass(r, a.frames, archiveBatch, a.b, tr, tel)
		r.chk.record(err)
		if err != nil {
			return err
		}
		cr.add(res)
		a.pass(tr, &m)
	}
	path, err := tr.write(r.workload)
	if err != nil {
		return err
	}
	r.note("spans: %d written to %s", len(tr.spans), path)

	p := map[string]float64{}
	codecMetrics(p, cr, tel)
	n := float64(len(m.wallMs))
	v := n * float64(len(a.frames)*a.frames[0].N()*3)
	coreEnc := ratio(cr.encNs, cr.values) * v
	coreDec := ratio(cr.decNs, cr.values) * v
	self := tr.self
	p["writer.overhead_ns_per_value"] = (self["encode/writer"] + self["encode/io"] - coreEnc) / v
	p["reader.overhead_ns_per_value"] = (self["decode/reader"] + self["decode/io"] - coreDec) / v
	p["writer.overhead_bytes_share"] = ratio(m.streamBytes-cr.blockBytes/cr.passes, m.streamBytes)
	p["io.sink_write_ns_per_value"] = self["encode/io"] / v
	p["io.sink_writes"] = m.sinkWrites / n
	p["io.source_bytes_per_op"] = m.srcBytes / n
	p["io.source_reads_per_op"] = m.srcReads / n
	p["io.source_seeks_per_op"] = m.srcSeeks / n
	p["encode.unattributed_ns_per_value"] = self["encode/"+unattributed] / v
	p["decode.unattributed_ns_per_value"] = self["decode/"+unattributed] / v
	p["writer.self_ns_per_value"] = (self["encode/writer"] - coreEnc) / v
	p["reader.self_ns_per_value"] = (self["decode/reader"] - coreDec) / v
	p["core.self_ns_per_value"] = (coreEnc + coreDec) / v
	p["io.self_ns_per_value"] = (self["encode/io"] + self["decode/io"]) / v
	p["trace.overhead_share"] = m.wallMs.median()/base.wallMs.median() - 1
	r.emitPerLayer(p)
	return nil
}

// loop runs passes back to back (a closed loop, one client) for d.
func (a *archive) loop(d time.Duration, tr *tracer, m *archivePasses) {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		a.pass(tr, m)
	}
}

// pass archives the frames, reads them back and checks every value
// against the bound; encode and decode count as one operation each.
func (a *archive) pass(tr *tracer, m *archivePasses) {
	stream, sink, enc, err := a.encode(tr)
	a.r.chk.record(err)
	if err != nil {
		return
	}
	decoded, src, dec, blocks, err := a.decode(stream, tr)
	if err == nil {
		err = a.r.chk.within(decoded, a.frames, a.b)
	}
	a.r.chk.record(err)
	if err != nil {
		return
	}
	m.encMBps = append(m.encMBps, a.raw/1e6/enc.Seconds())
	m.decMBps = append(m.decMBps, a.raw/1e6/dec.Seconds())
	m.blockMs = append(m.blockMs, blocks...)
	m.wallMs = append(m.wallMs, float64(enc+dec)/1e6)
	m.streamBytes = float64(len(stream))
	m.sinkWrites += float64(sink.writes)
	m.srcReads += float64(src.reads)
	m.srcSeeks += float64(src.seeks)
	m.srcBytes += float64(src.bytes)
}

// encode writes every frame through a Writer into the in-memory sink, as
// span "encode".
func (a *archive) encode(tr *tracer) ([]byte, *countingSink, time.Duration, error) {
	a.buf.Reset()
	sink := &countingSink{w: &a.buf, tr: tr}
	cfg := mdz.Config{ErrorBound: errorBound, BufferSize: archiveBatch, CheckpointInterval: 4, SeekIndex: true}
	t0 := time.Now()
	root := tr.begin("encode")
	id := tr.begin("writer.NewWriter")
	w, err := mdz.NewWriter(sink, cfg)
	tr.end(id)
	for i := 0; err == nil && i < len(a.frames); i++ {
		id = tr.begin("writer.WriteFrame")
		err = w.WriteFrame(a.frames[i])
		tr.end(id)
	}
	if err == nil {
		id = tr.begin("writer.Close")
		err = w.Close()
		tr.end(id)
	}
	tr.end(root)
	return a.buf.Bytes(), sink, time.Since(t0), err
}

// decode reads the whole stream back through a Reader, as span "decode".
// Besides the pass time it returns the latency of each ReadFrame call that
// had to decode a block.
func (a *archive) decode(stream []byte, tr *tracer) ([]mdz.Frame, *countingSource, time.Duration, samples, error) {
	src := &countingSource{r: bytes.NewReader(stream), tr: tr}
	out := make([]mdz.Frame, 0, len(a.frames))
	var blocks samples
	start := time.Now()
	root := tr.begin("decode")
	id := tr.begin("reader.NewReader")
	rd := mdz.NewReader(src)
	tr.end(id)
	var err error
	for {
		id := tr.begin("reader.ReadFrame")
		t0 := time.Now()
		f, ferr := rd.ReadFrame()
		d := time.Since(t0)
		tr.end(id)
		if errors.Is(ferr, io.EOF) {
			break
		}
		if ferr != nil {
			err = ferr
			break
		}
		if len(out)%archiveBatch == 0 {
			blocks = append(blocks, float64(d)/1e6)
		}
		out = append(out, f)
	}
	tr.end(root)
	return out, src, time.Since(start), blocks, err
}
