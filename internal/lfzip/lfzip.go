// Package lfzip reimplements the LFZip lossy floating-point time-series
// compressor baseline (Chandak et al., DCC 2020) with its NLMS (normalized
// least-mean-squares) adaptive linear predictor; as in the paper's
// evaluation, the neural-network predictor variant is omitted (the authors
// report it ~2000× slower for marginal gain).
//
// The batch is linearized particle-major (each particle's time series
// contiguous, the layout matching LFZip's per-variable streams), predicted
// by an order-32 NLMS filter over reconstructed values, uniformly quantized
// to the error bound, and entropy coded.
package lfzip

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/quant"
)

// DefaultOrder is LFZip's default NLMS filter order.
const DefaultOrder = 32

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("lfzip: corrupt block")

// Compressor is a stateless per-batch LFZip codec.
type Compressor struct {
	// Order overrides the NLMS filter order (default 32).
	Order int
	// QuantScale overrides the quantization interval count (default 65536).
	QuantScale int
	// Backend overrides the final lossless stage (default lossless.LZ).
	Backend lossless.Backend
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "LFZip" }

func (c *Compressor) backend() lossless.Backend {
	if c.Backend == nil {
		return lossless.LZ{}
	}
	return c.Backend
}

func (c *Compressor) order() int {
	if c.Order <= 0 {
		return DefaultOrder
	}
	return c.Order
}

func (c *Compressor) scale() int {
	if c.QuantScale <= 0 {
		return 65536
	}
	return c.QuantScale
}

const blockMagic = "LFZB"

// huffScratchPool and decPool recycle Huffman encoder and decoder state and
// decoded bin buffers across calls, keeping per-series table and
// symbol-buffer allocations off the steady-state path.
var (
	huffScratchPool = sync.Pool{New: func() any { return new(huffman.Scratch) }}
	decPool         = sync.Pool{New: func() any { return new(decState) }}
)

// decState is the pooled decode state: the Huffman section reader and the
// decoded bin buffer.
type decState struct {
	hs   huffman.DecodeScratch
	bins []int
}

// nlms is the normalized least-mean-squares adaptive filter. Encoder and
// decoder run identical instances over reconstructed values.
type nlms struct {
	w    []float64 // filter weights
	hist []float64 // ring buffer of past reconstructed values
	pos  int
	mu   float64
	n    int // values seen
}

func newNLMS(order int) *nlms {
	return &nlms{
		w:    make([]float64, order),
		hist: make([]float64, order),
		mu:   0.5,
	}
}

// predict returns the filter output for the next value.
func (f *nlms) predict() float64 {
	if f.n == 0 {
		return 0
	}
	if f.n < len(f.w) {
		// Cold start: previous value.
		return f.hist[(f.pos+len(f.hist)-1)%len(f.hist)]
	}
	var y float64
	for i := range f.w {
		y += f.w[i] * f.hist[(f.pos+i)%len(f.hist)]
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return f.hist[(f.pos+len(f.hist)-1)%len(f.hist)]
	}
	return y
}

// update feeds the reconstructed value back and adapts the weights.
func (f *nlms) update(recon, pred float64) {
	if f.n >= len(f.w) && !math.IsNaN(recon) && !math.IsInf(recon, 0) {
		e := recon - pred
		var norm float64
		for i := range f.w {
			h := f.hist[(f.pos+i)%len(f.hist)]
			norm += h * h
		}
		g := f.mu * e / (1 + norm)
		if !math.IsNaN(g) && !math.IsInf(g, 0) {
			for i := range f.w {
				f.w[i] += g * f.hist[(f.pos+i)%len(f.hist)]
			}
		}
	}
	f.hist[f.pos] = recon
	f.pos = (f.pos + 1) % len(f.hist)
	f.n++
}

// CompressSeries compresses one axis batch under absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("lfzip: empty batch")
	}
	n := len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("lfzip: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	q, err := quant.New(eb, c.scale())
	if err != nil {
		return nil, err
	}
	bs := len(batch)
	bins := make([]int, 0, bs*n)
	var outliers []byte
	f := newNLMS(c.order())
	// Particle-major traversal.
	for i := 0; i < n; i++ {
		for t := 0; t < bs; t++ {
			d := batch[t][i]
			pred := f.predict()
			code, r, ok := q.Quantize(d, pred)
			if !ok {
				outliers = quant.AppendBounded(outliers, d, eb)
				r = quant.BoundedRecon(d, eb)
				code = quant.Reserved
			}
			bins = append(bins, code)
			f.update(r, pred)
		}
	}
	var payload []byte
	hs := huffScratchPool.Get().(*huffman.Scratch)
	payload, err = hs.EncodeInts(payload, bins)
	huffScratchPool.Put(hs)
	if err != nil {
		return nil, err
	}
	payload = bitstream.AppendSection(payload, outliers)
	compressed, err := c.backend().Compress(payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte{}, blockMagic...)
	out = append(out, byte(c.order()))
	out = bitstream.AppendFloat64(out, eb)
	out = bitstream.AppendUvarint(out, uint64(c.scale()))
	out = bitstream.AppendUvarint(out, uint64(bs))
	out = bitstream.AppendUvarint(out, uint64(n))
	out = bitstream.AppendSection(out, compressed)
	return out, nil
}

// DecompressSeries inverts CompressSeries.
func (c *Compressor) DecompressSeries(blk []byte) ([][]float64, error) {
	br := bitstream.NewByteReader(blk)
	magic, err := br.ReadBytes(4)
	if err != nil || string(magic) != blockMagic {
		return nil, ErrCorrupt
	}
	orderByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if orderByte == 0 {
		return nil, ErrCorrupt
	}
	eb, err := br.ReadFloat64()
	if err != nil {
		return nil, err
	}
	scale, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	bs64, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	n64, err := br.ReadUvarint()
	if err != nil {
		return nil, err
	}
	bs, n := int(bs64), int(n64)
	if bs <= 0 || n < 0 || uint64(bs)*uint64(n) > 1<<33 {
		return nil, ErrCorrupt
	}
	q, err := quant.New(eb, int(scale))
	if err != nil {
		return nil, ErrCorrupt
	}
	compressed, err := br.ReadSection()
	if err != nil {
		return nil, err
	}
	payload, err := c.backend().Decompress(compressed)
	if err != nil {
		return nil, err
	}
	pr := bitstream.NewByteReader(payload)
	st := decPool.Get().(*decState)
	defer decPool.Put(st)
	bins, err := st.hs.DecodeInts(pr, 1, st.bins, nil)
	if err != nil {
		return nil, err
	}
	st.bins = bins
	outliers, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(bins) != bs*n {
		return nil, ErrCorrupt
	}
	opos := 0
	f := newNLMS(int(orderByte))
	out := make([][]float64, bs)
	for t := range out {
		out[t] = make([]float64, n)
	}
	idx := 0
	for i := 0; i < n; i++ {
		for t := 0; t < bs; t++ {
			pred := f.predict()
			code := bins[idx]
			idx++
			var r float64
			if quant.IsReserved(code) {
				v, n2, err := quant.ReadBounded(outliers[opos:], eb)
				if err != nil {
					return nil, ErrCorrupt
				}
				opos += n2
				r = v
			} else {
				r = q.Dequantize(code, pred)
			}
			out[t][i] = r
			f.update(r, pred)
		}
	}
	return out, nil
}
