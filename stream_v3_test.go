package mdz

import (
	"bytes"
	"testing"

	"github.com/mdz/mdz/internal/faultio"
)

// writeStream runs frames through a Writer and returns the stream image.
func writeStream(t *testing.T, cfg Config, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readV3Stream decodes the committed v3 stream fixture, checking it
// against its rebuilt input: within the bound and equal to the pinned
// hash.
func readV3Stream(t *testing.T) (stream []byte, frames []Frame) {
	t.Helper()
	stream = readV3Fixture(t, "stream_ADP.mdz")
	frames, err := NewReader(bytes.NewReader(stream)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	requireWithinRelBound(t, v3StreamFrames(), frames, v3StreamConfig.ErrorBound, v3StreamConfig.BufferSize)
	if h := hashFrames(frames); h != v3ADPStreamHash {
		t.Fatalf("v3 stream decoded hash %s, want %s", h, v3ADPStreamHash)
	}
	return stream, frames
}

// TestStreamFormatMatrix reads one trajectory as a v1 and a v2 container
// plus the committed v3 container, checking that each leads with its own
// magic, that the auto-detecting Reader decodes all three, and that v1 and
// v2 reconstruct bit-identical values.
func TestStreamFormatMatrix(t *testing.T) {
	const bs = 4
	frames := makeFrames(16, 100, 91)

	// v1: legacy length-prefixed container around v2-format blocks.
	v1 := buildV1Stream(compressAll(t, Config{ErrorBound: 1e-3, Method: MT, BufferSize: bs}, frames, bs)...)
	v2 := writeStream(t, Config{ErrorBound: 1e-3, Method: MT, BufferSize: bs, CheckpointInterval: 2}, frames)
	v3, _ := readV3Stream(t)

	for _, c := range []struct {
		name, magic string
		stream      []byte
	}{
		{"v1", streamMagic, v1},
		{"v2", streamMagicV2, v2},
		{"v3", streamMagicV3, v3},
	} {
		if got := string(c.stream[:4]); got != c.magic {
			t.Fatalf("%s stream magic = %q, want %q", c.name, got, c.magic)
		}
	}

	decode := func(stream []byte) []Frame {
		got, err := NewReader(bytes.NewReader(stream)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	requireFramesIdentical(t, decode(v1), decode(v2), "v1 vs v2")
}

// TestV3StreamMagicDetection pins that the v3 stream is detected by its
// magic, decodes through Seek/ReadRange via its seek table, and that a
// garbage magic still fails typed.
func TestV3StreamMagicDetection(t *testing.T) {
	v3, clean := readV3Stream(t)

	r := NewReader(bytes.NewReader(v3))
	if err := r.Seek(17); err != nil {
		t.Fatal(err)
	}
	f, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	requireFramesIdentical(t, clean[17:18], []Frame{f}, "Seek(17)")
	for _, w := range [][2]int{{0, 40}, {5, 6}, {13, 29}, {38, 40}} {
		got, err := NewReader(bytes.NewReader(v3)).ReadRange(w[0], w[1])
		if err != nil {
			t.Fatalf("ReadRange(%d, %d): %v", w[0], w[1], err)
		}
		requireFramesIdentical(t, clean[w[0]:w[1]], got, "ReadRange")
	}

	// Mangle the magic: the reader must reject rather than guess.
	bad := append([]byte(nil), v3...)
	copy(bad, "MDZ9")
	if _, err := NewReader(bytes.NewReader(bad)).ReadAll(); err == nil {
		t.Fatal("unknown magic accepted")
	}
}

// TestV3StreamResync corrupts the v3 stream mid-frame and checks that the
// resyncing reader salvages the undamaged regions, exactly as it does for
// v2 streams: salvaged frames must be an order-preserving subsequence of
// the clean decode and the loss must be accounted.
func TestV3StreamResync(t *testing.T) {
	stream, clean := readV3Stream(t)
	metas := parseV2Frames(t, stream)
	m := dataFrames(metas)[4]
	hurt := faultio.Corrupt(stream, faultio.Fault{
		Kind: faultio.FlipBit, Offset: int64(m.pay + m.plen/2), Bit: 3,
	})

	r := NewReaderWith(bytes.NewReader(hurt), ReaderOptions{Resync: true})
	salvaged, err := r.ReadAll()
	if err != nil {
		t.Fatalf("resync read: %v", err)
	}
	stats := r.SalvageStats()
	if stats.FirstError == nil {
		t.Fatal("corruption not recorded in salvage stats")
	}
	if len(salvaged) >= len(clean) {
		t.Fatalf("salvaged %d frames from a damaged stream of %d", len(salvaged), len(clean))
	}
	if len(salvaged) == 0 {
		t.Fatal("nothing salvaged")
	}
	if _, ok := matchSubsequence(clean, salvaged); !ok {
		t.Fatal("salvaged frames are not a subsequence of the clean decode")
	}
}
