package mdz

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

// countingSeeker counts the bytes read through an io.ReadSeeker.
type countingSeeker struct {
	io.ReadSeeker
	n int64
}

func (c *countingSeeker) Read(p []byte) (int, error) {
	k, err := c.ReadSeeker.Read(p)
	c.n += int64(k)
	return k, err
}

// refIndexTail is the single-read tail search the widening one must match:
// one seekTailWindow read of the stream's end, walked whole.
func refIndexTail(data []byte) ([]SeekEntry, bool) {
	tail := data[max(0, len(data)-seekTailWindow):]
	return findSeekFrame(tail, len(tail))
}

// checkIndexTail asserts the widening tail search returns exactly what the
// single 1 MiB read returns, and reports how many bytes it read.
func checkIndexTail(t *testing.T, data []byte) (ok bool, read int64) {
	t.Helper()
	src := &countingSeeker{ReadSeeker: bytes.NewReader(data)}
	r := NewReader(src)
	got, ok := r.loadIndexTail()
	want, wantOK := refIndexTail(data)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("widening search: ok=%v, %d entries; single read: ok=%v, %d entries", ok, len(got), wantOK, len(want))
	}
	return ok, src.n
}

// seekFrameAt locates the seek-table frame, which sits directly before the
// trailer, returning its offset and payload length.
func seekFrameAt(t *testing.T, data []byte) (int, int) {
	t.Helper()
	_, trailer := scanEntries(t, data)
	if trailer == nil {
		t.Fatal("no trailer")
	}
	off := bytes.LastIndex(data[:trailer.off], frameSync[:])
	if off < 0 || data[off+4] != frameSeekIndex {
		t.Fatalf("seek frame not found before the trailer (off %d)", off)
	}
	return off, int(binary.LittleEndian.Uint32(data[off+9 : off+13]))
}

// TestIndexTailWidening: a seek frame larger than the first tail window
// forces the search to widen, and it still finds the same table as a single
// 1 MiB read; a typical few-KiB table costs only the first window.
func TestIndexTailWidening(t *testing.T) {
	small := writeSeekStream(t, makeFrames(40, 50, 3), Config{ErrorBound: 1e-3, BufferSize: 2, CheckpointInterval: 3, SeekIndex: true})
	ok, read := checkIndexTail(t, small)
	if !ok || read > seekTailFirst {
		t.Fatalf("small table: ok=%v after reading %d bytes, want one window of at most %d", ok, read, seekTailFirst)
	}

	// One-snapshot blocks of two atoms: a few bytes of table per block.
	big := writeSeekStream(t, makeFrames(3000, 2, 5), Config{ErrorBound: 1e-3, BufferSize: 1, CheckpointInterval: 16, SeekIndex: true})
	_, n := seekFrameAt(t, big)
	if n <= seekTailFirst {
		t.Fatalf("seek table is %d bytes, want more than the %d-byte first window", n, seekTailFirst)
	}
	ok, read = checkIndexTail(t, big)
	if !ok || read <= seekTailFirst || read > int64(len(big)) {
		t.Fatalf("large table: ok=%v after reading %d of %d bytes", ok, read, len(big))
	}
}

// TestIndexTailDamagedTable: a sync marker that looks valid in front of a
// damaged table makes the widening search walk every candidate back to the
// 1 MiB bound, ending in the same scan fallback as a single read — and a
// Resync ReadRange then delivers the same frames with the same
// SalvageStats.
func TestIndexTailDamagedTable(t *testing.T) {
	frames := makeFrames(150, 3000, 41)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-4, BufferSize: 3, CheckpointInterval: 2, SeekIndex: true})
	if len(data) <= seekTailWindow {
		t.Fatalf("stream is %d bytes, want more than the %d-byte tail bound", len(data), seekTailWindow)
	}
	off, n := seekFrameAt(t, data)
	payload := off + frameHeaderSize

	flipped := append([]byte(nil), data...)
	flipped[payload+3] ^= 0x10 // payload CRC no longer matches

	// Garbage table under a recomputed payload CRC: the frame validates,
	// the table does not parse.
	forged := append([]byte(nil), data...)
	forged[payload] = seekIndexVersion + 1
	binary.LittleEndian.PutUint32(forged[payload+n:], crc32.Checksum(forged[payload:payload+n], crcTable))

	for name, bad := range map[string][]byte{"crc": flipped, "table": forged} {
		t.Run(name, func(t *testing.T) {
			if ok, _ := checkIndexTail(t, bad); ok {
				t.Fatal("damaged seek table accepted")
			}
			got := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Resync: true})
			ref := NewReaderWith(bytes.NewReader(bad), ReaderOptions{Resync: true})
			if err := ref.open(); err != nil {
				t.Fatal(err)
			}
			idx, ok := refIndexTail(bad)
			if !ok {
				var err error
				if idx, err = ref.rebuildIndex(); err != nil {
					t.Fatal(err)
				}
			}
			ref.index, ref.indexLoaded = idx, true
			// The tail window reaches the end of the stream, so reading on
			// crosses the damaged seek frame.
			a, aerr := got.ReadRange(140, 200)
			b, berr := ref.ReadRange(140, 200)
			if aerr != nil || berr != nil || !frameSlicesEqual(a, b) || len(a) != 10 {
				t.Fatalf("ReadRange: %d frames (err %v) vs reference %d (err %v)", len(a), aerr, len(b), berr)
			}
			sa, sb := got.SalvageStats(), ref.SalvageStats()
			if !reflect.DeepEqual(sa, sb) || sa.CorruptFrames == 0 {
				t.Fatalf("SalvageStats %+v, reference %+v", sa, sb)
			}
		})
	}
}
