package mdz

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"
)

// fuzzSeedStream builds a small valid v2 stream for the corpus.
func fuzzSeedStream(tb testing.TB, interval int) []byte {
	tb.Helper()
	frames := makeFrames(6, 30, 61)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: interval})
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStreamReader throws arbitrary bytes at the whole container decode
// path, in both strict and Resync modes. The reader must never panic, and
// every failure must carry a package sentinel (or be the io.Reader's own
// error — impossible here, the source is a bytes.Reader).
func FuzzStreamReader(f *testing.F) {
	v2 := fuzzSeedStream(f, 1)
	f.Add(v2)
	f.Add(fuzzSeedStream(f, 0))
	// Corrupted variants steer the fuzzer toward the resync machinery.
	flip := append([]byte(nil), v2...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)
	f.Add(v2[:3*len(v2)/4])
	// A v1 stream (legacy path), including one around the seed fixture.
	frames := makeFrames(4, 25, 62)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	blk, err := c.CompressBatch(frames)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buildV1Stream(blk))
	if seedBlk, err := os.ReadFile("testdata/seed_block_v1.bin"); err == nil {
		f.Add(buildV1Stream(seedBlk))
	}
	f.Add([]byte{})
	f.Add([]byte("MD"))
	f.Add([]byte(streamMagicV2))
	f.Add(append([]byte(streamMagicV2), frameSync[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound per-input work; framing logic doesn't care about size
		}
		for _, resync := range []bool{false, true} {
			r := NewReaderWith(bytes.NewReader(data), ReaderOptions{Workers: 1, Resync: resync})
			n := 0
			for {
				_, err := r.ReadFrame()
				if err == nil {
					if n++; n > 1<<16 {
						t.Fatalf("resync=%v: reader yielded over %d frames from %d bytes", resync, n, len(data))
					}
					continue
				}
				if !errors.Is(err, io.EOF) &&
					!errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrStateDesync) {
					t.Fatalf("resync=%v: untyped error: %v", resync, err)
				}
				// Errors must be sticky: the next read repeats them.
				if _, err2 := r.ReadFrame(); !errors.Is(err2, err) && err2 == nil {
					t.Fatalf("resync=%v: error not sticky", resync)
				}
				break
			}
			// Stats must be self-consistent even on garbage.
			st := r.SalvageStats()
			if st.CorruptFrames < 0 || st.SkippedBytes < 0 || st.DroppedFrames < 0 {
				t.Fatalf("resync=%v: negative stats: %+v", resync, st)
			}
		}
	})
}

// FuzzCheckpointUnmarshal hammers the checkpoint payload parser, which in
// Resync mode sees attacker-shaped bytes that passed a CRC.
func FuzzCheckpointUnmarshal(f *testing.F) {
	frames := makeFrames(4, 30, 63)
	c, err := NewCompressor(Config{ErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.CompressBatch(frames); err != nil {
		f.Fatal(err)
	}
	st, err := c.ExportState()
	if err != nil {
		f.Fatal(err)
	}
	payload, err := st.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add([]byte{checkpointVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got := &CheckpointState{}
		if err := got.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrStateDesync) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// Whatever parses must re-marshal without error.
		if _, err := got.MarshalBinary(); err != nil {
			t.Fatalf("re-marshal of accepted checkpoint failed: %v", err)
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the block decoder under a tight
// decode-memory budget. Every outcome must be a typed sentinel — corrupt,
// truncated, desync or budget rejection — and forged giant lengths must be
// rejected by accounting, never by crashing or allocating.
func FuzzDecodeBatch(f *testing.F) {
	seed := func(cfg Config, m, n int) []byte {
		frames := makeFrames(m, n, 64)
		c, err := NewCompressor(cfg)
		if err != nil {
			f.Fatal(err)
		}
		blk, err := c.CompressBatch(frames)
		if err != nil {
			f.Fatal(err)
		}
		return blk
	}
	v2 := seed(Config{ErrorBound: 1e-3}, 6, 40)
	f.Add(v2)
	f.Add(readV3Fixture(f, "block_ADP_shards4.bin"))
	f.Add(seed(Config{ErrorBound: 1e-3, Shards: 3}, 8, 96))
	flip := append([]byte(nil), v2...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("MDZS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		d := NewDecompressorWith(DecompressorOptions{Workers: 1, MaxDecodeBytes: 1 << 20})
		_, err := d.DecompressBatch(data)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrStateDesync) && !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}

// FuzzSeekRange checks random access across the knob space. A random
// trajectory (constant, drifting or regime-shift, so ADP moves between
// MT and VQT mid-stream) is written with a random BufferSize,
// CheckpointInterval 0–5, SeekIndex on or off, ADP re-evaluating every
// batch or on its default schedule and Shards 0, 1 or 3. The same stream
// is optionally written again with 1 or 2 Workers, split at a random frame
// by ExportState, MarshalBinary, UnmarshalBinary and ResumeWriter; its
// bytes must equal the unsplit write. One Reader with 1 or 2 Workers then
// serves three random windows and reads on to the end. Every window and
// the tail must be bit-identical to the same slice of a full sequential
// decode — whichever windows leave a reseed pending and whichever resolve
// it.
//
// knobs: bit 0 SeekIndex, bit 1 AdaptInterval, bit 2 the split write,
// bit 3 Workers, bits 4–5 Shards.
func FuzzSeekRange(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(2), uint8(0x05), uint16(37), uint8(9))
	f.Add(int64(7), uint8(2), uint8(2), uint8(1), uint8(0x0f), uint16(60), uint8(3))
	f.Add(int64(42), uint8(2), uint8(9), uint8(0), uint8(0x02), uint16(5), uint8(20))
	f.Add(int64(3), uint8(0), uint8(0), uint8(5), uint8(0x0d), uint16(0), uint8(1))
	f.Add(int64(1), uint8(1), uint8(10), uint8(0x55), uint8(0x04), uint16(37), uint8(9))
	f.Add(int64(151), uint8(205), uint8(80), uint8(119), uint8(0xff), uint16(51), uint8(27))
	f.Fuzz(func(t *testing.T, seed int64, shape, bufSize, interval, knobs uint8, lo uint16, width uint8) {
		m := 20 + int(uint64(seed)%80)
		n := 8 + int(uint64(seed>>8)%32)
		frames := seekFuzzFrames(seed, shape, m, n)
		cfg := Config{
			ErrorBound:         1e-4,
			BufferSize:         1 + int(bufSize%12),
			CheckpointInterval: int(interval % 6),
			SeekIndex:          knobs&1 != 0,
			AdaptInterval:      int(knobs >> 1 & 1),
			Shards:             [3]int{0, 1, 3}[int(knobs>>4&3)%3],
			Workers:            1,
		}
		workers := 1 + int(knobs>>3&1)
		data := writeSplit(t, frames, cfg, m)
		if knobs&4 != 0 {
			split := int(lo) % m
			wcfg := cfg
			wcfg.Workers = workers
			if got := writeSplit(t, frames, wcfg, split); !bytes.Equal(got, data) {
				t.Fatalf("%+v: split at frame %d: %d container bytes, unsplit %d", wcfg, split, len(got), len(data))
			}
		}
		want, err := NewReaderWorkers(bytes.NewReader(data), 1).ReadAll()
		if err != nil || len(want) != m {
			t.Fatalf("full decode: %d of %d frames, err %v", len(want), m, err)
		}

		opts := ReaderOptions{Workers: workers}
		r := NewReaderWith(bytes.NewReader(data), opts)
		rng := rand.New(rand.NewSource(seed ^ int64(lo)<<20 ^ int64(width)<<40))
		a, span := int(lo)%m, 1+int(width)%16
		end := 0
		for i := 0; i < 3; i++ {
			if i > 0 {
				a, span = rng.Intn(m), 1+rng.Intn(16)
			}
			end = min(a+span, m)
			got, err := r.ReadRange(a, a+span)
			if err != nil {
				t.Fatalf("%+v %+v: ReadRange(%d, %d): %v", cfg, opts, a, a+span, err)
			}
			if !frameSlicesEqual(got, want[a:end]) {
				t.Fatalf("%+v %+v: ReadRange(%d, %d) differs from the full decode", cfg, opts, a, a+span)
			}
		}
		for i := end; ; i++ {
			f, err := r.ReadFrame()
			if errors.Is(err, io.EOF) {
				if i != m {
					t.Fatalf("%+v %+v: stream ended at snapshot %d of %d", cfg, opts, i, m)
				}
				break
			}
			if err != nil {
				t.Fatalf("%+v %+v: reading on from %d: %v", cfg, opts, end, err)
			}
			if i >= m || !framesExactEqual(f, want[i]) {
				t.Fatalf("%+v %+v: snapshot %d read on after the windows differs", cfg, opts, i)
			}
		}
	})
}

// writeSplit writes frames as one stream under cfg. When split < len(frames),
// the Writer is migrated after frames[:split] (migrateWriter) and the
// resumed Writer appends the rest.
func writeSplit(t *testing.T, frames []Frame, cfg Config, split int) []byte {
	t.Helper()
	buf := &bytes.Buffer{}
	w, err := NewWriter(buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if i == split {
			w, buf = migrateWriter(t, w, buf, cfg)
		}
		if err := w.WriteFrame(fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seekFuzzFrames builds an m-snapshot trajectory of n particles in one of
// three shapes: 0 constant; 1 drifting, a liquid whose particles diffuse
// with correlated velocities; 2 regime shift, particles vibrating around
// their starting sites for the first half and diffusing in the second, so
// snapshot 0 stops predicting them and ADP moves between MT and VQT.
func seekFuzzFrames(seed int64, shape uint8, m, n int) []Frame {
	rng := rand.New(rand.NewSource(seed))
	box := math.Cbrt(float64(n) / 0.08)
	var pos, vel [3][]float64
	for axis := range pos {
		pos[axis] = make([]float64, n)
		vel[axis] = make([]float64, n)
		for i := range pos[axis] {
			pos[axis][i] = box * rng.Float64()
			vel[axis][i] = 0.2 * rng.NormFloat64()
		}
	}
	frames := make([]Frame, m)
	for t := range frames {
		f := Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		diffuse := t > 0 && (shape%3 == 1 || (shape%3 == 2 && t >= m/2))
		for axis, dst := range [3][]float64{f.X, f.Y, f.Z} {
			for i := range dst {
				if diffuse {
					vel[axis][i] = 0.9*vel[axis][i] + 0.087*rng.NormFloat64()
					pos[axis][i] += vel[axis][i]
				}
				dst[i] = pos[axis][i]
				if shape%3 == 2 && !diffuse {
					dst[i] += 0.02 * rng.NormFloat64()
				}
			}
		}
		frames[t] = f
	}
	return frames
}
