package mdz

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeFrames builds a crystalline-in-x, liquid-in-y, constant-in-z
// trajectory so the three axes exercise different methods under ADP.
func makeFrames(m, n int, seed int64) []Frame {
	rng := rand.New(rand.NewSource(seed))
	levels := make([]int, n)
	posY := make([]float64, n)
	for i := range levels {
		levels[i] = rng.Intn(10)
		posY[i] = rng.Float64() * 30
	}
	frames := make([]Frame, m)
	for t := range frames {
		f := Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		for i := 0; i < n; i++ {
			f.X[i] = 3.0*float64(levels[i]) + rng.NormFloat64()*0.02
			posY[i] += rng.NormFloat64() * 0.001
			f.Y[i] = posY[i]
			f.Z[i] = 7.25
		}
		frames[t] = f
	}
	return frames
}

func frameRange(frames []Frame, axis int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range frames {
		for _, v := range axisSeries([]Frame{f}, axis)[0] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return hi - lo
}

func TestOneShotRoundTripValueRange(t *testing.T) {
	frames := makeFrames(25, 300, 1)
	eps := 1e-3
	stream, err := Compress(frames, Config{ErrorBound: eps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("frame count %d != %d", len(got), len(frames))
	}
	for axis := 0; axis < 3; axis++ {
		bound := eps * frameRange(frames[:DefaultBufferSize], axis)
		if bound == 0 {
			bound = eps // degenerate constant axis
		}
		for ti := range frames {
			want := axisSeries(frames[ti:ti+1], axis)[0]
			have := axisSeries(got[ti:ti+1], axis)[0]
			for i := range want {
				if e := math.Abs(want[i] - have[i]); e > bound+1e-15 {
					t.Fatalf("axis %d frame %d particle %d: err %v > %v", axis, ti, i, e, bound)
				}
			}
		}
	}
	if len(stream) >= len(frames)*300*3*8 {
		t.Errorf("no compression: %d bytes", len(stream))
	}
}

func TestAbsoluteMode(t *testing.T) {
	frames := makeFrames(12, 100, 2)
	stream, err := Compress(frames, Config{ErrorBound: 0.01, Mode: Absolute, Method: MT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range frames {
		for i := range frames[ti].X {
			for axis := 0; axis < 3; axis++ {
				w := axisSeries(frames[ti:ti+1], axis)[0][i]
				h := axisSeries(got[ti:ti+1], axis)[0][i]
				if math.Abs(w-h) > 0.01 {
					t.Fatalf("axis %d: error %v", axis, math.Abs(w-h))
				}
			}
		}
	}
}

func TestStreamingAPI(t *testing.T) {
	frames := makeFrames(30, 200, 3)
	c, err := NewCompressor(Config{ErrorBound: 1e-4, Mode: Absolute})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecompressor()
	var rebuilt []Frame
	for _, batch := range Batch(frames, 10) {
		blk, err := c.CompressBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.DecompressBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, out...)
	}
	if len(rebuilt) != len(frames) {
		t.Fatalf("rebuilt %d frames, want %d", len(rebuilt), len(frames))
	}
	raw, comp := c.Stats()
	if raw != int64(30*200*3*8) {
		t.Errorf("raw stats = %d", raw)
	}
	if comp <= 0 || comp >= raw {
		t.Errorf("compressed stats = %d (raw %d)", comp, raw)
	}
	ms := c.Methods()
	for axis, m := range ms {
		if m != VQ && m != VQT && m != MT {
			t.Errorf("axis %d: unexpected method %v", axis, m)
		}
	}
}

func TestBatchHelper(t *testing.T) {
	frames := makeFrames(7, 5, 4)
	b := Batch(frames, 3)
	if len(b) != 3 || len(b[0]) != 3 || len(b[2]) != 1 {
		t.Errorf("batch shapes wrong: %d", len(b))
	}
	if got := Batch(frames, 0); len(got[0]) != DefaultBufferSize && len(got[0]) != 7 {
		t.Errorf("default batch size: %d", len(got[0]))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCompressor(Config{}); err == nil {
		t.Error("zero ErrorBound accepted")
	}
	if _, err := NewCompressor(Config{ErrorBound: -1}); err == nil {
		t.Error("negative ErrorBound accepted")
	}
	if _, err := NewCompressor(Config{ErrorBound: 1e-3, BufferSize: -2}); err == nil {
		t.Error("negative BufferSize accepted")
	}
}

// TestPipelineConfigValidation: the ADP sampling knob is range-checked up
// front by both the Compressor and the Writer.
func TestPipelineConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ErrorBound: 1e-3, ADPSampleShards: -1},
		{ErrorBound: 1e-3, ADPSampleShards: 1 << 20},
	} {
		if _, err := NewCompressor(cfg); err == nil {
			t.Errorf("NewCompressor accepted %+v", cfg)
		}
		if _, err := NewWriter(io.Discard, cfg); err == nil {
			t.Errorf("NewWriter accepted %+v", cfg)
		}
	}
	if _, err := NewWriter(io.Discard, Config{ErrorBound: 1e-3, ADPSampleShards: 2}); err != nil {
		t.Errorf("valid ADPSampleShards rejected: %v", err)
	}
}

func TestBadInputs(t *testing.T) {
	c, _ := NewCompressor(Config{ErrorBound: 1e-3})
	if _, err := c.CompressBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	ragged := []Frame{{X: []float64{1}, Y: []float64{1}, Z: []float64{1}},
		{X: []float64{1, 2}, Y: []float64{1, 2}, Z: []float64{1, 2}}}
	if _, err := c.CompressBatch(ragged); err == nil {
		t.Error("ragged batch accepted")
	}
	d := NewDecompressor()
	if _, err := d.DecompressBatch([]byte("bogus")); err == nil {
		t.Error("bogus block accepted")
	}
	if _, err := Decompress([]byte("bogus")); err == nil {
		t.Error("bogus stream accepted")
	}
}

func TestPropertyErrorBoundAllMethods(t *testing.T) {
	f := func(seed int64, mRaw, ebExp uint8) bool {
		m := Method(mRaw % 4)
		eb := math.Pow(10, -1-float64(ebExp%4))
		frames := makeFrames(8, 40, seed)
		stream, err := Compress(frames, Config{ErrorBound: eb, Mode: Absolute, Method: m, BufferSize: 4})
		if err != nil {
			return false
		}
		got, err := Decompress(stream)
		if err != nil || len(got) != len(frames) {
			return false
		}
		for ti := range frames {
			for axis := 0; axis < 3; axis++ {
				w := axisSeries(frames[ti:ti+1], axis)[0]
				h := axisSeries(got[ti:ti+1], axis)[0]
				for i := range w {
					if math.Abs(w[i]-h[i]) > eb {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConstantTrajectoryShardedRoundTrip: a constant trajectory compresses
// far past any fixed expansion ratio (10 frames of 200k atoms fit in well
// under a kilobyte per axis), and sharded blocks of it must still decode.
// Plausibility of a block's claimed geometry is not judged from its size;
// the decoder defers allocating the output until a shard's sections have
// decoded to their share of it.
func TestConstantTrajectoryShardedRoundTrip(t *testing.T) {
	frames := constantFrames(10, 200000)
	for _, m := range []Method{MT, ADP} {
		blks := compressAll(t, Config{ErrorBound: 1e-3, Method: m, Shards: 2}, frames, len(frames))
		got := decompressAll(t, blks)
		requireWithinRelBound(t, frames, got, 1e-3, len(frames))
	}
}
