// Package sz3 implements an interpolation-based error-bounded compressor in
// the style of SZ3 / SZ-Interp (Zhao et al., ICDE 2021 — the paper's
// reference [31]). It is not part of the paper's comparison set (the paper
// cites prior work showing interpolation compressors are sub-optimal on MD
// data because they rely on smoothness along the interpolated dimension);
// it is included as an extension baseline so that claim can be checked
// directly (experiment "ext1").
//
// Mechanism: per particle time series, a multi-level cubic/linear
// interpolation cascade predicts each point from already-reconstructed
// points at coarser strides (level ℓ predicts odd multiples of 2^ℓ from
// neighbors at 2^(ℓ+1)); residuals go through the standard linear-scale
// quantization + Huffman + dictionary pipeline.
package sz3

import (
	"errors"
	"fmt"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/quant"
)

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("sz3: corrupt block")

// Compressor is a stateless per-batch interpolation codec.
type Compressor struct {
	// QuantScale overrides the quantization interval count (default 65536).
	QuantScale int
	// Backend overrides the final lossless stage (default lossless.LZ).
	Backend lossless.Backend
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "SZ3i" }

func (c *Compressor) backend() lossless.Backend {
	if c.Backend == nil {
		return lossless.LZ{}
	}
	return c.Backend
}

func (c *Compressor) scale() int {
	if c.QuantScale <= 0 {
		return 65536
	}
	return c.QuantScale
}

const blockMagic = "SZ3B"

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

// interpOrder enumerates, for a series of length m, the prediction schedule:
// anchors at the coarsest stride are predicted from their predecessors, then
// each finer level interpolates midpoints from reconstructed neighbors.
//
// For every index it returns (a, b): the indices whose reconstructed values
// predict it (b < 0 means single-point prediction from a; a < 0 means no
// prediction, i.e. the very first anchor predicted as 0).
func interpOrder(m int) (order []int, pa, pb []int) {
	pa = make([]int, m)
	pb = make([]int, m)
	for i := range pa {
		pa[i], pb[i] = -1, -1
	}
	// Coarsest power-of-two stride <= m.
	stride := 1
	for stride*2 < m {
		stride *= 2
	}
	// Anchors: 0, stride, 2*stride... predicted from the previous anchor.
	prev := -1
	for i := 0; i < m; i += stride {
		order = append(order, i)
		pa[i] = prev
		prev = i
	}
	// Refinement levels.
	for s := stride; s >= 2; s /= 2 {
		half := s / 2
		for i := half; i < m; i += s {
			order = append(order, i)
			lo := i - half
			hi := i + half
			if hi >= m {
				// Right edge: extrapolate from the left neighbor only.
				pa[i] = lo
			} else {
				pa[i], pb[i] = lo, hi
			}
		}
	}
	return order, pa, pb
}

// predict computes the interpolation prediction for index i given the
// reconstruction buffer.
func predict(recon []float64, i, a, b int) float64 {
	switch {
	case a < 0:
		return 0
	case b < 0:
		return recon[a]
	default:
		return (recon[a] + recon[b]) / 2
	}
}

// CompressSeries compresses one axis batch under absolute error bound eb.
// Interpolation runs along each particle's time dimension (the layout that
// favors interpolation most on trajectory data).
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("sz3: empty batch")
	}
	n := len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("sz3: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	q, err := quant.New(eb, c.scale())
	if err != nil {
		return nil, err
	}
	bs := len(batch)
	order, pa, pb := interpOrder(bs)
	bins := make([]int, 0, bs*n)
	var outliers []byte
	series := make([]float64, bs)
	recon := make([]float64, bs)
	for i := 0; i < n; i++ {
		for t := 0; t < bs; t++ {
			series[t] = batch[t][i]
		}
		for _, t := range order {
			pred := predict(recon, t, pa[t], pb[t])
			code, r, ok := q.Quantize(series[t], pred)
			if !ok {
				outliers = quant.AppendBounded(outliers, series[t], eb)
				r = quant.BoundedRecon(series[t], eb)
				code = quant.Reserved
			}
			bins = append(bins, code)
			recon[t] = r
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
	order, pa, pb := interpOrder(bs)
	opos := 0
	out := make([][]float64, bs)
	for t := range out {
		out[t] = make([]float64, n)
	}
	recon := make([]float64, bs)
	idx := 0
	for i := 0; i < n; i++ {
		for _, t := range order {
			pred := predict(recon, t, pa[t], pb[t])
			code := bins[idx]
			idx++
			if quant.IsReserved(code) {
				v, n2, err := quant.ReadBounded(outliers[opos:], eb)
				if err != nil {
					return nil, ErrCorrupt
				}
				opos += n2
				recon[t] = v
			} else {
				recon[t] = q.Dequantize(code, pred)
			}
		}
		for t := 0; t < bs; t++ {
			out[t][i] = recon[t]
		}
	}
	return out, nil
}
