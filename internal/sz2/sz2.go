// Package sz2 reimplements the SZ2 error-bounded lossy compressor baseline
// (Tao et al. / Liang et al.) for the comparison study: Lorenzo prediction
// from reconstructed neighbors, linear-scale quantization, Huffman coding,
// and a dictionary-coding (Zstd-role) final stage.
//
// Both evaluation modes of the paper's Table IV are provided: Mode1D treats
// each batch as a flat stream with previous-value (1-D Lorenzo) prediction;
// Mode2D lays the batch out as a snapshots × particles grid and predicts
// each point from its left, up and diagonal reconstructed neighbors,
// exploiting spatial and temporal continuity at once.
package sz2

import (
	"errors"
	"fmt"
	"sync"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/huffman"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/quant"
)

// Mode selects the prediction dimensionality.
type Mode uint8

// Prediction modes (Table IV).
const (
	Mode2D Mode = iota // default: the stronger mode, used in the evaluation
	Mode1D
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Mode1D {
		return "1D"
	}
	return "2D"
}

// DefaultQuantScale mirrors SZ2's default of 65536 quantization intervals.
const DefaultQuantScale = 65536

// ErrCorrupt is returned for malformed blocks.
var ErrCorrupt = errors.New("sz2: corrupt block")

// Compressor is a stateless per-batch SZ2 codec.
type Compressor struct {
	// Mode selects 1-D or 2-D Lorenzo prediction (default Mode2D).
	Mode Mode
	// QuantScale overrides the quantization interval count (default 65536).
	QuantScale int
	// Backend overrides the final lossless stage (default lossless.LZ).
	Backend lossless.Backend
}

// Name implements the benchmark Codec naming convention.
func (c *Compressor) Name() string { return "SZ2-" + c.Mode.String() }

func (c *Compressor) backend() lossless.Backend {
	if c.Backend == nil {
		return lossless.LZ{}
	}
	return c.Backend
}

func (c *Compressor) scale() int {
	if c.QuantScale <= 0 {
		return DefaultQuantScale
	}
	return c.QuantScale
}

const blockMagic = "SZ2B"

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

// CompressSeries compresses one axis batch (snapshots × particles) under
// absolute error bound eb.
func (c *Compressor) CompressSeries(batch [][]float64, eb float64) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("sz2: empty batch")
	}
	n := len(batch[0])
	for i, s := range batch {
		if len(s) != n {
			return nil, fmt.Errorf("sz2: snapshot %d has %d values, want %d", i, len(s), n)
		}
	}
	q, err := quant.New(eb, c.scale())
	if err != nil {
		return nil, err
	}
	bs := len(batch)
	bins := make([]int, 0, bs*n)
	var outliers []byte
	recon := make([][]float64, bs)
	for t := range recon {
		recon[t] = make([]float64, n)
	}
	for t := 0; t < bs; t++ {
		for i := 0; i < n; i++ {
			var pred float64
			switch {
			case c.Mode == Mode1D:
				// Flat stream: previous value, crossing snapshot borders.
				if i > 0 {
					pred = recon[t][i-1]
				} else if t > 0 {
					pred = recon[t-1][n-1]
				}
			default: // Mode2D
				left, up, diag := 0.0, 0.0, 0.0
				if i > 0 {
					left = recon[t][i-1]
				}
				if t > 0 {
					up = recon[t-1][i]
				}
				if i > 0 && t > 0 {
					diag = recon[t-1][i-1]
				}
				switch {
				case i > 0 && t > 0:
					pred = left + up - diag
				case i > 0:
					pred = left
				case t > 0:
					pred = up
				}
			}
			d := batch[t][i]
			code, r, ok := q.Quantize(d, pred)
			if !ok {
				outliers = quant.AppendBounded(outliers, d, eb)
				r = quant.BoundedRecon(d, eb)
				code = quant.Reserved
			}
			bins = append(bins, code)
			recon[t][i] = r
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
	out = append(out, byte(c.Mode))
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
	modeByte, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	mode := Mode(modeByte)
	if mode != Mode1D && mode != Mode2D {
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
	out := make([][]float64, bs)
	for t := range out {
		out[t] = make([]float64, n)
	}
	for t := 0; t < bs; t++ {
		for i := 0; i < n; i++ {
			var pred float64
			switch {
			case mode == Mode1D:
				if i > 0 {
					pred = out[t][i-1]
				} else if t > 0 {
					pred = out[t-1][n-1]
				}
			default:
				left, up, diag := 0.0, 0.0, 0.0
				if i > 0 {
					left = out[t][i-1]
				}
				if t > 0 {
					up = out[t-1][i]
				}
				if i > 0 && t > 0 {
					diag = out[t-1][i-1]
				}
				switch {
				case i > 0 && t > 0:
					pred = left + up - diag
				case i > 0:
					pred = left
				case t > 0:
					pred = up
				}
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
		}
	}
	return out, nil
}
