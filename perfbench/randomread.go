package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	mdz "github.com/mdz/mdz"
)

// Stream layout of the random-read workload.
const (
	rangeBatch      = 10 // snapshots per block
	rangeMaxWindow  = 10 // windows span 1..rangeMaxWindow snapshots
	rangeCheckpoint = 4  // blocks between checkpoints
)

// randomRead is the random-read workload: short ReadRange windows into an
// indexed stream of a diffusing liquid, each through a fresh Reader.
type randomRead struct {
	r       *run
	frames  []mdz.Frame
	b       bounds
	stream  []byte
	decoded []mdz.Frame // full sequential decode, the reference for windows
	encMBps samples     // each block flush of the set-up writes
	rng     *rand.Rand
}

// rangeOps collects the per-operation measurements of one loop.
type rangeOps struct {
	opMs          samples
	opMBps        samples // requested raw bytes over ReadRange time
	seekMs        samples
	framesMs      samples
	requested     float64
	srcBytes      float64
	srcReads      float64
	srcSeeks      float64
	frameBlocks   float64 // blocks the windows span, decoded by ReadFrame
	decodedBlocks float64 // every block decoded, seeding included
}

func runRandomRead(r *run) error {
	rr := &randomRead{r: r, rng: rand.New(rand.NewSource(r.seed))}
	if err := r.timeSetups(rr.setup); err != nil {
		return err
	}
	r.inputStamp(r.sz.liquidAtoms, r.sz.liquidSnaps, rangeBatch)
	raw := float64(rawBytes(rr.frames))
	var warm rangeOps
	rr.loop(r.window()/20, nil, &warm)
	if !r.traced {
		var m rangeOps
		cpu := cpuTime()
		rr.loop(r.window(), nil, &m)
		r.setCPU(cpuTime()-cpu, m.requested*float64(3*rr.frames[0].N()))
		// The set-up writes saw the host of the first seconds only; as many
		// writes again after the window keep encode_mbps from resting on one
		// moment of a shared host.
		for i := 0; i < r.sz.setups; i++ {
			again, err := rr.write()
			if err == nil && !bytes.Equal(again, rr.stream) {
				err = errors.New("rewritten stream differs from the first write")
			}
			r.chk.record(err)
		}
		r.note("set-up block flush MB/s: %s", rr.encMBps.timing())
		r.note("ReadRange MB/s: %s", m.opMBps.timing())
		r.note("ReadRange ms: %s", m.opMs.timing())
		r.set("encode_mbps", "MB/s", rr.encMBps.median())
		r.set("decode_mbps", "MB/s", m.opMBps.median())
		r.set("read_p50_ms", "ms", m.opMs.median())
		r.set("compression_ratio", "ratio", raw/float64(len(rr.stream)))
		r.set("nrmse", "ratio", r.chk.nrmse())
		return nil
	}

	var base, m rangeOps
	rr.loop(r.window()/2, nil, &base)
	tr := newTracer(time.Now(), new(atomic.Int64))
	tel := telTotals{}
	// Codec-only passes bracket the traced loop, so the core estimate sees
	// the same host as the operations it is subtracted from.
	cr, err := codecPass(r, rr.frames, rangeBatch, rr.b, tr, tel)
	if err != nil {
		return err
	}
	rr.loop(r.window()/2, tr, &m)
	after, err := codecPass(r, rr.frames, rangeBatch, rr.b, tr, tel)
	if err != nil {
		return err
	}
	cr.add(after)
	path, err := tr.write(r.workload)
	if err != nil {
		return err
	}
	r.note("spans: %d written to %s", len(tr.spans), path)
	r.note("Seek ms: %s", m.seekMs.timing())

	p := map[string]float64{}
	codecMetrics(p, cr, tel)
	n := float64(len(m.opMs))
	atomVals := float64(3 * rr.frames[0].N())
	v := m.requested * atomVals
	decNs := ratio(cr.decNs, cr.values)
	coreFrames := decNs * m.frameBlocks * rangeBatch * atomVals
	coreSeek := decNs * (m.decodedBlocks - m.frameBlocks) * rangeBatch * atomVals
	self := tr.self
	p["reader.overhead_ns_per_value"] = (self["range/reader"] + self["range/seek"] + self["range/io"] - coreFrames - coreSeek) / v
	p["writer.overhead_bytes_share"] = ratio(float64(len(rr.stream))-cr.blockBytes/cr.passes, float64(len(rr.stream)))
	p["seek.seek_ms_p50"] = m.seekMs.median()
	p["seek.seek_ms_p99"] = m.seekMs.quantile(0.99)
	p["seek.frames_ms_p50"] = m.framesMs.median()
	p["io.source_bytes_per_op"] = m.srcBytes / n
	p["io.source_reads_per_op"] = m.srcReads / n
	p["io.source_seeks_per_op"] = m.srcSeeks / n
	p["seek.read_amplification"] = m.decodedBlocks * rangeBatch / m.requested
	p["range.unattributed_ns_per_value"] = self["range/"+unattributed] / v
	p["reader.self_ns_per_value"] = (self["range/reader"] - coreFrames) / v
	p["seek.self_ns_per_value"] = (self["range/seek"] - coreSeek) / v
	p["core.self_ns_per_value"] = (coreFrames + coreSeek) / v
	p["io.self_ns_per_value"] = self["range/io"] / v
	p["trace.overhead_share"] = m.opMs.median()/base.opMs.median() - 1
	r.emitPerLayer(p)
	return nil
}

// setup generates the liquid, writes the indexed stream once and decodes
// it in full as the reference every window is compared with.
func (rr *randomRead) setup() error {
	rr.frames, rr.decoded, rr.stream = nil, nil, nil
	rr.frames = liquid(rr.r.seed, rr.r.sz.liquidAtoms, rr.r.sz.liquidSnaps)
	rr.b = boundsOf(rr.frames, rangeBatch, errorBound)
	var err error
	if rr.stream, err = rr.write(); err != nil {
		return err
	}
	rr.decoded, err = mdz.NewReader(bytes.NewReader(rr.stream)).ReadAll()
	if err != nil {
		return err
	}
	err = rr.r.chk.within(rr.decoded, rr.frames, rr.b)
	rr.r.chk.record(err)
	return err
}

// write compresses the frames into an indexed stream, timing every block
// flush into encMBps.
func (rr *randomRead) write() ([]byte, error) {
	var buf bytes.Buffer
	cfg := mdz.Config{ErrorBound: errorBound, BufferSize: rangeBatch, CheckpointInterval: rangeCheckpoint, SeekIndex: true}
	w, err := mdz.NewWriter(&buf, cfg)
	if err != nil {
		return nil, err
	}
	// Every rangeBatch-th WriteFrame compresses and writes one block.
	blockMB := float64(rangeBatch*24*rr.frames[0].N()) / 1e6
	for i, f := range rr.frames {
		t0 := time.Now()
		if err := w.WriteFrame(f); err != nil {
			return nil, err
		}
		if i%rangeBatch == rangeBatch-1 {
			rr.encMBps = append(rr.encMBps, blockMB/time.Since(t0).Seconds())
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loop issues ReadRange operations back to back (a closed loop, one
// client) for d. Windows and their starts come from the workload seed.
func (rr *randomRead) loop(d time.Duration, tr *tracer, m *rangeOps) {
	deadline := time.Now().Add(d)
	for len(m.opMs) == 0 || time.Now().Before(deadline) {
		w := 1 + rr.rng.Intn(rangeMaxWindow)
		lo := rr.rng.Intn(len(rr.frames) - w + 1)
		var got []mdz.Frame
		var err error
		var dur time.Duration
		if tr == nil {
			t0 := time.Now()
			got, err = mdz.NewReader(bytes.NewReader(rr.stream)).ReadRange(lo, lo+w)
			dur = time.Since(t0)
		} else {
			got, dur, err = rr.tracedRange(tr, lo, w, m)
		}
		if err == nil {
			err = sameFrames(got, rr.decoded[lo:lo+w])
		}
		if err == nil {
			err = rr.r.chk.within(got, rr.frames[lo:lo+w], rr.b)
		}
		if err != nil {
			err = fmt.Errorf("range [%d, %d): %w", lo, lo+w, err)
		}
		rr.r.chk.record(err)
		m.opMs = append(m.opMs, float64(dur)/1e6)
		m.opMBps = append(m.opMBps, float64(w*24*rr.frames[0].N())/1e6/dur.Seconds())
		m.requested += float64(w)
	}
}

// tracedRange is ReadRange split into its public calls — Seek, then one
// ReadFrame per snapshot — over a counting source, as span "range".
func (rr *randomRead) tracedRange(tr *tracer, lo, w int, m *rangeOps) ([]mdz.Frame, time.Duration, error) {
	src := &countingSource{r: bytes.NewReader(rr.stream), tr: tr}
	out := make([]mdz.Frame, 0, w)
	t0 := time.Now()
	root := tr.begin("range")
	id := tr.begin("reader.NewReader")
	rd := mdz.NewReaderWith(src, mdz.ReaderOptions{Telemetry: true})
	tr.end(id)
	seek := tr.begin("seek.Seek")
	err := rd.Seek(lo)
	tr.end(seek)
	var framesNs int64
	for err == nil && len(out) < w {
		id = tr.begin("reader.ReadFrame")
		var f mdz.Frame
		f, err = rd.ReadFrame()
		tr.end(id)
		framesNs += tr.spans[id].End - tr.spans[id].Start
		out = append(out, f)
	}
	tr.end(root)
	dur := time.Since(t0)
	m.seekMs = append(m.seekMs, float64(tr.spans[seek].End-tr.spans[seek].Start)/1e6)
	m.framesMs = append(m.framesMs, float64(framesNs)/1e6)
	m.srcBytes += float64(src.bytes)
	m.srcReads += float64(src.reads)
	m.srcSeeks += float64(src.seeks)
	blocks := float64(rd.Telemetry().Counters["decompress.axis_batches"]) / 3
	m.decodedBlocks += blocks
	m.frameBlocks += float64((lo+w-1)/rangeBatch - lo/rangeBatch + 1)
	return out, dur, err
}
