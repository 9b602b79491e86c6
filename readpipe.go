package mdz

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/lossless"
)

// Pipelined read path (ReaderOptions.Pipeline)
//
// The read-side mirror of the Writer's PipelineDepth: a fetch goroutine
// runs the serial frame machinery — sync scan, header and payload CRCs,
// sequence accounting — and hands verified frames over a bounded channel,
// while the caller's goroutine assembles runs of consecutive data frames
// and decodes them concurrently on the shared pool. Blocks after the
// first are independent given the per-axis MT references (the only
// cross-block decoder state), so each group member decodes on its own
// Decompressor clone seeded with the main decompressor's references, and
// results are delivered strictly in frame order: the output is
// byte-identical to a serial read for any worker count or pipeline depth.
//
// Checkpoints, the seek table and the trailer are processed on the
// caller's goroutine between groups, in order, exactly as the serial path
// does. So is a reseed Seek left pending: blocks that need no reference
// keep forming groups, each clone holding its references, and a group ends
// before the first block that needs them, which applies the reseed first. The pipeline is strict-mode only: salvage accounting is causal
// (what was lost before which recovery point), which the serial scan
// preserves and a decode-ahead would not.
//
// Error model: a decode failure at group position j surfaces after the
// j-1 preceding blocks' frames have been delivered — the same prefix a
// serial reader would deliver. The decode memory budget (MaxDecodeBytes)
// is shared by the whole group, matching its documented per-concurrent-
// operation-set semantics.

// pipeItem is one verified frame fetched ahead of decode. The payload is
// an owned copy (the parse window behind it is long gone by decode time).
type pipeItem struct {
	typ     byte
	seq     uint32
	off     int64
	payload []byte
}

// readPipe is the fetch goroutine's rendezvous state.
type readPipe struct {
	items chan pipeItem
	stop  chan struct{}
	done  chan struct{}
	// err is the fetch side's terminal error; written before items is
	// closed, so receivers observing the close may read it.
	err error
}

// startPipe launches the fetch goroutine. The Reader must be opened and
// in strict v2 mode.
func (r *Reader) startPipe() {
	p := &readPipe{
		items: make(chan pipeItem, r.pipeDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	r.pipe = p
	go r.fetchLoop(p)
}

// stopPipe abandons the fetch goroutine and waits for it to exit. The
// parse window is left wherever the fetcher got to, so callers must
// reposition (Seek) before reading sequentially again.
func (r *Reader) stopPipe() {
	p := r.pipe
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	for range p.items {
		// drain so the buffered payloads are released
	}
	r.pipe = nil
	r.pipePending = nil
}

// fetchLoop is the read-ahead stage: it walks frames with the serial
// strict-mode machinery and forwards verified ones. It exits — always
// closing items — on the trailer, any error, or stopPipe.
func (r *Reader) fetchLoop(p *readPipe) {
	defer close(p.done)
	defer close(p.items)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if r.ctx != nil {
			if cerr := r.ctx.Err(); cerr != nil {
				p.err = cerr
				return
			}
		}
		fp, off, err := r.nextFrameV2()
		if err != nil {
			p.err = err
			return
		}
		it := pipeItem{
			typ: fp.typ, seq: fp.seq, off: off,
			payload: append([]byte(nil), fp.payload...),
		}
		select {
		case p.items <- it:
		case <-p.stop:
			return
		}
		if fp.typ == frameTrailer {
			return
		}
	}
}

// pipeNext returns the next fetched frame, blocking until one is
// available; ok is false when the fetch side has terminated.
func (r *Reader) pipeNext() (pipeItem, bool) {
	if it := r.pipePending; it != nil {
		r.pipePending = nil
		return *it, true
	}
	it, ok := <-r.pipe.items
	return it, ok
}

// pipeTryNext is pipeNext without blocking: it only drains frames the
// fetcher has already buffered.
func (r *Reader) pipeTryNext() (pipeItem, bool) {
	if it := r.pipePending; it != nil {
		r.pipePending = nil
		return *it, true
	}
	select {
	case it, ok := <-r.pipe.items:
		if !ok {
			return pipeItem{}, false
		}
		return it, true
	default:
		return pipeItem{}, false
	}
}

// groupMax bounds a decode group: one block per pool worker.
func (r *Reader) groupMax() int {
	w := r.d.pool.Workers()
	if w < 1 {
		w = 1
	}
	return w
}

// nextBatchPiped is nextBatchV2 for the pipelined Reader: it consumes
// fetched frames in order, decoding runs of data frames concurrently.
func (r *Reader) nextBatchPiped() error {
	if r.pipeDefer != nil {
		err := r.pipeDefer
		r.pipeDefer = nil
		return err
	}
	if r.pipe == nil {
		r.startPipe()
	}
	for {
		it, ok := r.pipeNext()
		if !ok {
			if err := r.pipe.err; err != nil {
				return err
			}
			return io.EOF
		}
		switch it.typ {
		case frameData:
			if err := r.seedBlock(it.payload); err != nil {
				return err
			}
			group := []pipeItem{it}
			if r.seeded() {
				// Extend the group with whatever consecutive data frames
				// the fetcher has already buffered — while a reseed is
				// pending, only those that decode without the references:
				// the group ends before the block that needs them.
				for len(group) < r.groupMax() {
					nxt, ok := r.pipeTryNext()
					if !ok {
						break
					}
					if nxt.typ != frameData || (r.seed != nil && blockUsesRef(nxt.payload)) {
						r.pipePending = &nxt
						break
					}
					group = append(group, nxt)
				}
			}
			if err := r.decodeGroup(group); err != nil {
				return err
			}
			if len(r.queue) > 0 {
				return nil
			}
			// Every decoded snapshot was consumed by a seek skip: keep
			// going.
			continue

		case frameCheckpoint:
			if err := r.takeCheckpoint(it.payload, it.seq, it.off); err != nil {
				return err
			}
			continue

		case frameSeekIndex:
			if idx, ierr := parseSeekIndex(it.payload); ierr == nil {
				if !r.indexLoaded {
					r.index, r.indexLoaded = idx, true
				}
			} else {
				return &CorruptBlockError{Block: it.seq, Offset: it.off, Cause: ierr}
			}
			continue

		case frameTrailer:
			return r.finishTrailer(it)
		}
	}
}

// finishTrailer validates the trailer frame in strict mode — the piped
// twin of nextBatchV2's trailer case.
func (r *Reader) finishTrailer(it pipeItem) error {
	snapTotal, blockTotal, err := parseTrailer(it.payload)
	if err != nil {
		return &CorruptBlockError{Block: it.seq, Offset: it.off, Cause: err}
	}
	r.trailer = true
	if r.seeked {
		if snapTotal < r.delivered || blockTotal < r.blocks {
			return fmt.Errorf("%w: trailer claims %d snapshots in %d blocks, decoded %d in %d after a seek",
				ErrCorruptBlock, snapTotal, blockTotal, r.delivered, r.blocks)
		}
		return io.EOF
	}
	if snapTotal != r.delivered || blockTotal != r.blocks {
		return fmt.Errorf("%w: trailer claims %d snapshots in %d blocks, decoded %d in %d",
			ErrCorruptBlock, snapTotal, blockTotal, r.delivered, r.blocks)
	}
	return io.EOF
}

// decodeGroup decodes a run of consecutive data frames, delivering their
// snapshots in order. A failure at position j delivers positions < j
// first and surfaces the error once they are consumed — exactly the
// serial prefix.
func (r *Reader) decodeGroup(items []pipeItem) error {
	outs := make([][]Frame, len(items))
	errs := make([]error, len(items))
	if len(items) == 1 {
		// Single block (or an unseeded decoder): decode on the main
		// decompressor so the MT references are established there.
		outs[0], errs[0] = r.d.DecompressBatch(items[0].payload)
	} else {
		refs := r.d.refs()
		clones := r.ensureClones(len(items))
		var next atomic.Int32
		rcErr := r.d.pool.RunContextChunked(r.ctx, len(items), func(lo, hi int) error {
			c := clones[int(next.Add(1))-1]
			c.setRefs(refs)
			for i := lo; i < hi; i++ {
				outs[i], errs[i] = c.DecompressBatchContext(r.ctx, items[i].payload)
			}
			return nil
		})
		if rcErr != nil {
			// A contained panic or pre-start cancellation; attribute it to
			// the first undecoded item.
			for i := range errs {
				if errs[i] == nil && outs[i] == nil {
					errs[i] = rcErr
					break
				}
			}
		}
	}
	var gerr error
	for i := range items {
		if derr := errs[i]; derr != nil {
			if isCancellation(derr) || errors.Is(derr, ErrBudgetExceeded) {
				gerr = derr
			} else {
				gerr = &CorruptBlockError{Block: items[i].seq, Offset: items[i].off, Cause: derr}
			}
			break
		}
		batch := r.trimSeekSkip(outs[i])
		r.blocks++
		r.delivered += int64(len(batch))
		r.queue = append(r.queue, batch...)
	}
	if gerr != nil {
		if len(r.queue) > 0 {
			r.pipeDefer = gerr
			return nil
		}
		return gerr
	}
	return nil
}

// ensureClones returns n decode clones (created lazily, reused across
// groups). Clones share the pool, budget and telemetry registry with the
// main decompressor; their per-axis references are refreshed per group.
func (r *Reader) ensureClones(n int) []*Decompressor {
	for len(r.clones) < n {
		r.clones = append(r.clones, r.d.clone())
	}
	return r.clones[:n]
}

// parseTrailer decodes a trailer payload.
func parseTrailer(payload []byte) (snapTotal, blockTotal int64, err error) {
	s, p, err := readUvarint(payload)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: malformed trailer", ErrCorruptBlock)
	}
	b, p, err := readUvarint(p)
	if err != nil || len(p) != 0 || s > 1<<62 || b > 1<<62 {
		return 0, 0, fmt.Errorf("%w: malformed trailer", ErrCorruptBlock)
	}
	return int64(s), int64(b), nil
}

// clone builds a Decompressor sharing this one's pool, budget, context
// and telemetry registry, with fresh per-axis decoders — the unit of
// frame-level decode parallelism.
func (d *Decompressor) clone() *Decompressor {
	c := &Decompressor{pool: d.pool, reg: d.reg, bud: d.bud, ctx: d.ctx, cancelled: d.cancelled}
	tel := core.DecoderInstruments(d.reg)
	for i := range c.dec {
		c.dec[i] = core.NewDecoder(core.Params{Backend: lossless.LZ{}, Pool: d.pool, Tel: tel, Budget: d.bud})
	}
	return c
}

// refs snapshots the per-axis MT references.
func (d *Decompressor) refs() [3][]float64 {
	var out [3][]float64
	for i, dec := range d.dec {
		out[i] = dec.Ref()
	}
	return out
}

// setRefs seeds the per-axis MT references; a nil reference (the main
// decompressor's is still pending) is held, never adopted.
func (d *Decompressor) setRefs(refs [3][]float64) {
	for i, dec := range d.dec {
		if refs[i] == nil {
			dec.HoldRef()
		} else {
			dec.SetRef(refs[i])
		}
	}
}
