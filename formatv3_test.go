package mdz

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/quant"
)

// Format v3 is read-only: nothing in the module writes it. These tests
// decode the fixtures in testdata/v3, which the retired v3 encoder wrote
// (testdata/v3/README.md lists how), and rebuild each fixture's input.

// readV3Fixture loads one committed v3 fixture.
func readV3Fixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "v3", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// v3FixedFrames is the input of the per-method block fixtures.
func v3FixedFrames() []Frame { return makeFrames(8, 256, 31) }

// v3Fixed is a fixed-method block fixture and the Config that wrote it,
// less the retired FormatVersion: 3.
type v3Fixed struct {
	name string
	cfg  Config
}

// v3FixedBlocks lists the fixed-method block fixtures.
func v3FixedBlocks() []v3Fixed {
	var out []v3Fixed
	for _, m := range []Method{VQ, VQT, MT} {
		for _, s := range []int{1, 4} {
			out = append(out, v3Fixed{fmt.Sprintf("block_%v_shards%d.bin", m, s), Config{ErrorBound: 1e-3, Method: m, Shards: s}})
		}
	}
	return append(out, v3Fixed{"block_MT_outliers.bin", Config{ErrorBound: 1e-3, Method: MT, Shards: 2}})
}

// v3FixedInput rebuilds the input of a fixed-method block fixture.
func v3FixedInput(name string) []Frame {
	if name == "block_MT_outliers.bin" {
		return spikyFrames()
	}
	return v3FixedFrames()
}

// spikyFrames is outlier-heavy input: NaNs and huge jumps force the
// out-of-scope path (reserved codes plus exact storage).
func spikyFrames() []Frame {
	spiky := makeFrames(4, 256, 8)
	for t := range spiky {
		for i := 0; i < 256; i += 17 {
			spiky[t].Y[i] = math.NaN()
		}
		for i := 5; i < 256; i += 29 {
			spiky[t].Y[i] = 1e18
		}
	}
	return spiky
}

// constantFrames is m snapshots of n atoms all at (1.5, 2.5, 3.5).
func constantFrames(m, n int) []Frame {
	frames := make([]Frame, m)
	for t := range frames {
		f := Frame{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n)}
		for i := 0; i < n; i++ {
			f.X[i], f.Y[i], f.Z[i] = 1.5, 2.5, 3.5
		}
		frames[t] = f
	}
	return frames
}

// v3StreamFrames is the input of stream_ADP.mdz and writer_state_ADP.bin.
func v3StreamFrames() []Frame { return makeFrames(40, 100, 57) }

// v3StreamConfig is the Config that wrote stream_ADP.mdz, less the retired
// FormatVersion: 3; its batches are two snapshots.
var v3StreamConfig = Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: 3, SeekIndex: true}

// v3WriterStateSeen is the number of frames the Writer behind
// writer_state_ADP.bin had accepted when it exported its state.
const v3WriterStateSeen = 11

// Pinned SHA-256 digests (hashFrames) of the ADP fixtures' decoded output.
const (
	v3ADPBlockHash  = "2e240af46fdd01e74f07237031058de282f58eac5397c789649bc8b12e3f996b"
	v3ConstantHash  = "bd2ecc33af0506ebb59e17ebee7687093496552bf6b7a8a2e3bc0eadfc3dbb39"
	v3ADPStreamHash = "40ba9e9b0ed0667c7b40b2bfa937c854cf65fd174cf2022bbe5f6c74008c8cd4"
)

// hashFrames is the SHA-256 of every decoded value's IEEE-754 bits.
func hashFrames(frames []Frame) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range frames {
		for _, axis := range [][]float64{f.X, f.Y, f.Z} {
			for _, v := range axis {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compressAll runs frames through a fresh compressor batch by batch.
func compressAll(t testing.TB, cfg Config, frames []Frame, bs int) [][]byte {
	t.Helper()
	c, err := NewCompressor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blks [][]byte
	for lo := 0; lo < len(frames); lo += bs {
		hi := min(lo+bs, len(frames))
		blk, err := c.CompressBatch(frames[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, append([]byte(nil), blk...))
	}
	return blks
}

func decompressAll(t testing.TB, blks [][]byte) []Frame {
	t.Helper()
	d := NewDecompressor()
	var out []Frame
	for _, blk := range blks {
		frames, err := d.DecompressBatch(blk)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frames...)
	}
	return out
}

func requireFramesIdentical(t testing.TB, want, got []Frame, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		if hashFrames(want[i:i+1]) != hashFrames(got[i:i+1]) {
			t.Fatalf("%s: frame %d not bit-identical", label, i)
		}
	}
}

// requireWithinRelBound checks got against orig under a ValueRange bound
// rel, which each axis resolves against the range of the first batch
// (the first firstBatch frames).
func requireWithinRelBound(t testing.TB, orig, got []Frame, rel float64, firstBatch int) {
	t.Helper()
	if len(orig) != len(got) {
		t.Fatalf("%d frames, want %d", len(got), len(orig))
	}
	for axis := 0; axis < 3; axis++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, snap := range axisSeries(orig[:firstBatch], axis) {
			l, h := quant.Range(snap)
			lo, hi = math.Min(lo, l), math.Max(hi, h)
		}
		eb := quant.AbsBound(rel, lo, hi)
		for ti := range orig {
			want, have := axisSeries(orig[ti:ti+1], axis)[0], axisSeries(got[ti:ti+1], axis)[0]
			for i := range want {
				if d := math.Abs(want[i] - have[i]); !(d <= eb) {
					t.Fatalf("frame %d axis %d atom %d: error %g exceeds bound %g", ti, axis, i, d, eb)
				}
			}
		}
	}
}

// TestV3BatchMatchesV2 pins the central v3 contract at the public API: the
// decompressor (which auto-detects the block version) reconstructs every
// fixed-method v3 fixture bit-identically to a v2 encode→decode of the same
// input. ADP may break near-ties differently per format, so the ADP
// fixtures instead stay within the bound and match their pinned hashes.
func TestV3BatchMatchesV2(t *testing.T) {
	for _, fx := range v3FixedBlocks() {
		frames := v3FixedInput(fx.name)
		got := decompressAll(t, [][]byte{readV3Fixture(t, fx.name)})
		want := decompressAll(t, compressAll(t, fx.cfg, frames, len(frames)))
		requireFramesIdentical(t, want, got, fx.name)
	}
	for _, tc := range []struct {
		name   string
		frames []Frame
		hash   string
	}{
		{"block_ADP_shards4.bin", v3FixedFrames(), v3ADPBlockHash},
		{"block_ADP_constant.bin", constantFrames(10, 100000), v3ConstantHash},
	} {
		got := decompressAll(t, [][]byte{readV3Fixture(t, tc.name)})
		requireWithinRelBound(t, tc.frames, got, 1e-3, len(tc.frames))
		if h := hashFrames(got); h != tc.hash {
			t.Fatalf("%s: decoded hash %s, want %s", tc.name, h, tc.hash)
		}
	}
}

// TestV3ConfigValidation pins that no Config continues a v3 run: the
// writer-state fixture (a v3 Writer exported mid-stream) is refused by
// ResumeWriter with ErrStateDesync naming the format, its checkpoint does
// not import into a Compressor, and the state does not re-marshal.
func TestV3ConfigValidation(t *testing.T) {
	st := &WriterState{}
	if err := st.UnmarshalBinary(readV3Fixture(t, "writer_state_ADP.bin")); err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || st.Checkpoint.Format != 3 {
		t.Fatalf("fixture checkpoint = %+v, want format 3", st.Checkpoint)
	}
	prefix := readV3Fixture(t, "stream_ADP.mdz")[:st.CompBytes]
	for _, cfg := range []Config{v3StreamConfig, {ErrorBound: 1e-3}} {
		_, err := ResumeWriter(bytes.NewBuffer(append([]byte(nil), prefix...)), cfg, st)
		if !errors.Is(err, ErrStateDesync) || !strings.Contains(err.Error(), "v3") {
			t.Fatalf("ResumeWriter(%+v): err = %v, want ErrStateDesync naming v3", cfg, err)
		}
	}
	c, err := NewCompressor(v3StreamConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ImportState(st.Checkpoint); !errors.Is(err, ErrStateDesync) {
		t.Fatalf("Compressor.ImportState: err = %v, want ErrStateDesync", err)
	}
	if _, err := st.MarshalBinary(); err == nil {
		t.Fatal("v3 writer state re-marshaled")
	}
}

// TestV3OneShotRoundTrip decodes v3 blocks inside the one-shot MDZF
// envelope through Decompress.
func TestV3OneShotRoundTrip(t *testing.T) {
	blk := readV3Fixture(t, "block_ADP_shards4.bin")
	got, err := Decompress(oneShotEnvelope(blk))
	if err != nil {
		t.Fatal(err)
	}
	frames := v3FixedFrames()
	requireWithinRelBound(t, frames, got, 1e-3, len(frames))
	if h := hashFrames(got); h != v3ADPBlockHash {
		t.Fatalf("decoded hash %s, want %s", h, v3ADPBlockHash)
	}
}

// oneShotEnvelope wraps blocks in the one-shot MDZF layout Compress
// writes: magic, block count, length-prefixed blocks.
func oneShotEnvelope(blks ...[]byte) []byte {
	out := bitstream.AppendUvarint([]byte("MDZF"), uint64(len(blks)))
	for _, blk := range blks {
		out = bitstream.AppendSection(out, blk)
	}
	return out
}

// TestV3CheckpointFormat pins the v3 checkpoint payload: checkpoint frames
// of the stream fixture carry payload version checkpointVersionV3, parse to
// Format 3, and do not marshal again.
func TestV3CheckpointFormat(t *testing.T) {
	stream := readV3Fixture(t, "stream_ADP.mdz")
	cps := checkpointFrames(parseV2Frames(t, stream))
	if len(cps) == 0 {
		t.Fatal("stream fixture has no checkpoint frames")
	}
	for _, m := range cps {
		payload := stream[m.pay : m.pay+m.plen]
		if payload[0] != checkpointVersionV3 {
			t.Fatalf("checkpoint payload version = %d, want %d", payload[0], checkpointVersionV3)
		}
		var st CheckpointState
		if err := st.UnmarshalBinary(payload); err != nil {
			t.Fatal(err)
		}
		if st.Format != 3 || st.Batch <= 0 {
			t.Fatalf("checkpoint parsed as %+v", st)
		}
		if _, err := st.MarshalBinary(); err == nil {
			t.Fatal("v3 checkpoint marshaled")
		}
	}
}

// TestCheckpointStateCrossProcessV3 mirrors TestCompressorStateResume for
// the read-only format: the checkpoint inside a v3 WriterState serialized
// by another process reseeds a fresh Decompressor, which then decodes the
// rest of the v3 stream bit-identically to an in-order read.
func TestCheckpointStateCrossProcessV3(t *testing.T) {
	st := &WriterState{}
	if err := st.UnmarshalBinary(readV3Fixture(t, "writer_state_ADP.bin")); err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || st.Checkpoint.Format != 3 {
		t.Fatalf("decoded checkpoint = %+v, want format 3", st.Checkpoint)
	}
	stream := readV3Fixture(t, "stream_ADP.mdz")
	want, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecompressor()
	if err := d.ImportState(st.Checkpoint); err != nil {
		t.Fatal(err)
	}
	data := dataFrames(parseV2Frames(t, stream))
	var got []Frame
	for _, m := range data[st.Blocks:] {
		frames, err := d.DecompressBatch(stream[m.pay : m.pay+m.plen])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, frames...)
	}
	requireFramesIdentical(t, want[st.Frames:], got, "reseeded decode")
	if st.Frames+int64(len(st.Pending)) != v3WriterStateSeen {
		t.Fatalf("writer state holds %d+%d frames, want %d", st.Frames, len(st.Pending), v3WriterStateSeen)
	}
	requireFramesIdentical(t, v3StreamFrames()[st.Frames:v3WriterStateSeen], st.Pending, "pending")
}

// FuzzV3Differential throws arbitrary bytes at the block decoder under a
// fuzzer-chosen worker count and MaxDecodeBytes budget, seeded with the
// fixed-method v3 fixtures. Every outcome is a typed error or a decode
// within the budget, never a panic; an unmutated seed must decode
// bit-identically to the v2 encode→decode of its input.
func FuzzV3Differential(f *testing.F) {
	want := map[string][]Frame{}
	for _, fx := range v3FixedBlocks() {
		frames := v3FixedInput(fx.name)
		blk := readV3Fixture(f, fx.name)
		want[string(blk)] = decompressAll(f, compressAll(f, fx.cfg, frames, len(frames)))
		f.Add(blk, uint8(0), uint8(15))
	}
	f.Fuzz(func(t *testing.T, blk []byte, wSel, bSel uint8) {
		workers := 1 + int(wSel%4)
		limit := int64(1) << (12 + bSel%16) // 4 KiB .. 128 MiB
		d := NewDecompressorWith(DecompressorOptions{Workers: workers, MaxDecodeBytes: limit})
		got, err := d.DecompressBatch(blk)
		ref, seed := want[string(blk)]
		if err != nil {
			if !errors.Is(err, ErrCorruptBlock) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrStateDesync) && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("untyped error: %v", err)
			}
			if seed && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("seed block failed to decode: %v", err)
			}
			return
		}
		var values int64
		for _, f := range got {
			values += int64(3 * f.N())
		}
		if 8*values > limit {
			t.Fatalf("decoded %d values past a %d-byte budget", values, limit)
		}
		if seed {
			requireFramesIdentical(t, ref, got, "seed")
		}
	})
}
