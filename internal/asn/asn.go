// Package asn reimplements the adjacent-snapshot N-body compressor of Li et
// al. 2018 ("Optimizing lossy compression with adjacent snapshots for
// N-body simulation data") as an evaluation baseline: each snapshot after
// the first is predicted from the previous one or two reconstructed
// snapshots — order-1 (previous value) or order-2 (linear extrapolation
// 2·prev − prev2), whichever predicts the snapshot better on a sample — and
// the first snapshot falls back to spatial Lorenzo prediction. Residuals go
// through the standard quantization + Huffman + dictionary pipeline.
package asn

import (
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/quant"
)

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("asn: corrupt block")

// Compressor is a stateless per-batch ASN codec.
type Compressor struct {
	// QuantScale overrides the quantization interval count (default 65536).
	QuantScale int
	// Backend overrides the final lossless stage (default lossless.LZ).
	Backend lossless.Backend
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "ASN" }

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

const blockMagic = "ASNB"

// Per-snapshot predictor selector codes.
const (
	predLorenzo = 0 // spatial previous-value (first snapshot)
	predOrder1  = 1 // previous snapshot
	predOrder2  = 2 // linear extrapolation from two previous snapshots
)

// CompressSeries compresses one axis batch under absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("asn: empty batch")
	}
	n := len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("asn: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	q, err := quant.New(eb, c.scale())
	if err != nil {
		return nil, err
	}
	bs := len(batch)
	bins := make([]int, 0, bs*n)
	var outliers []byte
	selectors := make([]byte, bs)
	prev := make([]float64, n)  // recon of t-1
	prev2 := make([]float64, n) // recon of t-2
	cur := make([]float64, n)
	for t, snap := range batch {
		sel := predLorenzo
		if t == 1 {
			sel = predOrder1
		} else if t >= 2 {
			// Sample-based selection between order-1 and order-2.
			sel = predOrder1
			if sampleErr(snap, prev, prev2, true) < sampleErr(snap, prev, prev2, false) {
				sel = predOrder2
			}
		}
		selectors[t] = byte(sel)
		lastRecon := 0.0
		for i, d := range snap {
			var pred float64
			switch sel {
			case predLorenzo:
				pred = lastRecon
			case predOrder1:
				pred = prev[i]
			default:
				pred = 2*prev[i] - prev2[i]
			}
			code, r, ok := q.Quantize(d, pred)
			if !ok {
				outliers = quant.AppendBounded(outliers, d, eb)
				r = quant.BoundedRecon(d, eb)
				code = quant.Reserved
			}
			bins = append(bins, code)
			cur[i] = r
			lastRecon = r
		}
		prev2, prev, cur = prev, cur, prev2
	}
	var payload []byte
	payload = bitstream.AppendSection(payload, selectors)
	payload, err = huffman.EncodeInts(payload, bins)
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

// sampleErr estimates the mean absolute prediction error over a stride
// sample; order2 selects the extrapolation predictor.
func sampleErr(snap, prev, prev2 []float64, order2 bool) float64 {
	stride := len(snap)/256 + 1
	var sum float64
	cnt := 0
	for i := 0; i < len(snap); i += stride {
		var p float64
		if order2 {
			p = 2*prev[i] - prev2[i]
		} else {
			p = prev[i]
		}
		sum += math.Abs(snap[i] - p)
		cnt++
	}
	return sum / float64(cnt)
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
	selectors, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(selectors) != bs {
		return nil, ErrCorrupt
	}
	var hs huffman.DecodeScratch
	bins, err := hs.DecodeInts(pr, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	outliers, err := pr.ReadSection()
	if err != nil {
		return nil, err
	}
	if len(bins) != bs*n {
		return nil, ErrCorrupt
	}
	opos := 0
	out := make([][]float64, bs)
	for t := range out {
		out[t] = make([]float64, n)
	}
	for t := 0; t < bs; t++ {
		sel := int(selectors[t])
		if sel < predLorenzo || sel > predOrder2 {
			return nil, ErrCorrupt
		}
		lastRecon := 0.0
		for i := 0; i < n; i++ {
			var pred float64
			switch sel {
			case predLorenzo:
				pred = lastRecon
			case predOrder1:
				if t < 1 {
					return nil, ErrCorrupt
				}
				pred = out[t-1][i]
			default:
				if t < 2 {
					return nil, ErrCorrupt
				}
				pred = 2*out[t-1][i] - out[t-2][i]
			}
			code := bins[t*n+i]
			if quant.IsReserved(code) {
				v, n2, err := quant.ReadBounded(outliers[opos:], eb)
				if err != nil {
					return nil, ErrCorrupt
				}
				opos += n2
				out[t][i] = v
			} else {
				out[t][i] = q.Dequantize(code, pred)
			}
			lastRecon = out[t][i]
		}
	}
	return out, nil
}
