package mdz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// TestCheckpointPackOnce: a Writer packs the stream's MT references once
// and every checkpoint reuses the bytes, which equal the uncached
// encoding — for each checkpoint payload and for the WriterState a
// migration exports. A state whose references were edited after export
// is re-packed, never served the stale bytes.
func TestCheckpointPackOnce(t *testing.T) {
	frames := makeFrames(24, 120, 91)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 3, CheckpointInterval: 1, SeekIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var pack *refPack
	for _, f := range frames[:15] {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if w.blocks == 0 {
			continue
		}
		if pack == nil {
			pack = w.c.pack
		}
		if pack == nil || w.c.pack != pack {
			t.Fatalf("after %d blocks: references not packed once (%p, then %p)", w.blocks, pack, w.c.pack)
		}
	}

	ws, err := w.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ws.Checkpoint.pack = nil
	uncached, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, uncached) {
		t.Fatal("WriterState bytes differ from the uncached encoding")
	}

	for _, f := range frames[15:] {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	entries, _ := scanEntries(t, data)
	r := NewReader(bytes.NewReader(data))
	checkpoints := 0
	for _, e := range entries {
		if e.Type != frameCheckpoint {
			continue
		}
		checkpoints++
		payload, err := r.readFrameAt(e)
		if err != nil {
			t.Fatal(err)
		}
		st := &CheckpointState{}
		if err := st.UnmarshalBinary(payload); err != nil {
			t.Fatal(err)
		}
		fresh, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, fresh) {
			t.Fatalf("checkpoint %d payload differs from the uncached encoding", e.Seq)
		}
	}
	if checkpoints != 8 {
		t.Fatalf("stream carries %d checkpoints, want 8", checkpoints)
	}

	st, err := w.c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.Axes[1].Ref[0] += 1
	payload, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := &CheckpointState{}
	if err := back.UnmarshalBinary(payload); err != nil {
		t.Fatal(err)
	}
	if back.Axes[1].Ref[0] != st.Axes[1].Ref[0] {
		t.Fatal("an edited reference was marshaled from the stale packed bytes")
	}
}

// TestReseedTelemetry pins the read-path counters: a window of blocks that
// need no reference applies no reseed (the pending one is dropped as
// unneeded at Close), an MT window applies exactly one — from the nearest
// checkpoint, or from block 0 before the first — and the index comes from
// the seek table when the stream has one, else from a scan rebuild.
func TestReseedTelemetry(t *testing.T) {
	frames := makeFrames(40, 60, 17)
	for _, tc := range []struct {
		name                                          string
		method                                        Method
		seekIndex                                     bool
		lo                                            int
		checkpoint, block0, unneeded, loads, rebuilds int64
	}{
		{"VQT window", VQT, true, 25, 0, 0, 1, 1, 0},
		{"MT window", MT, true, 25, 1, 0, 0, 1, 0},
		{"MT window before the first checkpoint", MT, true, 5, 0, 1, 0, 1, 0},
		{"MT window, scan rebuild", MT, false, 25, 1, 0, 0, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := writeSeekStream(t, frames, Config{
				ErrorBound: 1e-3, Method: tc.method, BufferSize: 4, CheckpointInterval: 2, SeekIndex: tc.seekIndex,
			})
			want := readAllSerial(t, data)
			r := NewReaderWith(bytes.NewReader(data), ReaderOptions{Telemetry: true})
			got, err := r.ReadRange(tc.lo, tc.lo+3)
			if err != nil || !frameSlicesEqual(got, want[tc.lo:tc.lo+3]) {
				t.Fatalf("ReadRange: err %v", err)
			}
			r.Close()
			c := r.Telemetry().Counters
			for name, want := range map[string]int64{
				"seek.reseeds.checkpoint": tc.checkpoint,
				"seek.reseeds.block0":     tc.block0,
				"seek.reseeds.unneeded":   tc.unneeded,
				"seek.index.loads":        tc.loads,
				"seek.index.rebuilds":     tc.rebuilds,
			} {
				if c[name] != want {
					t.Errorf("%s = %d, want %d", name, c[name], want)
				}
			}
		})
	}
}

// TestSeekUnparseableReference: the nearest checkpoint before the window
// is CRC-valid but its axis-0 reference does not unpack. The reference is
// only unpacked when the window's first MT block needs it, yet the
// outcome matches an eager reseed: a strict reader fails with
// ErrCorruptBlock; a Resync reader falls back to the checkpoint before it
// — or, with every checkpoint so damaged, to block 0 — and delivers the
// exact frames, with each damaged checkpoint recorded in SalvageStats.
func TestSeekUnparseableReference(t *testing.T) {
	frames := makeFrames(60, 80, 29)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, Method: MT, BufferSize: 4, CheckpointInterval: 2, SeekIndex: true})
	want := readAllSerial(t, data)
	entries, _ := scanEntries(t, data)
	const lo, hi = 45, 49
	var cps []SeekEntry
	for _, e := range entries {
		if e.Type == frameCheckpoint && e.SnapFrom <= lo {
			cps = append(cps, e)
		}
	}
	if len(cps) != 5 {
		t.Fatalf("test needs 5 checkpoints before the window, have %d", len(cps))
	}
	nearest := cps[len(cps)-1]

	// garble rewrites the checkpoint at e with an unparseable axis-0
	// reference (its claimed unpacked size changed) behind valid CRCs.
	garble := func(stream []byte, e SeekEntry) []byte {
		out := append([]byte(nil), stream...)
		n := int(binary.LittleEndian.Uint32(out[e.Offset+9:]))
		payload := out[e.Offset+frameHeaderSize : e.Offset+frameHeaderSize+int64(n)]
		cp, err := parseCheckpoint(payload)
		if err != nil {
			t.Fatal(err)
		}
		out[cap(out)-cap(cp.secs[0])] ^= 0x7f
		binary.LittleEndian.PutUint32(out[e.Offset+frameHeaderSize+int64(n):], crc32.Checksum(payload, crcTable))
		if err := new(CheckpointState).UnmarshalBinary(payload); !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("garbled checkpoint unmarshals: %v", err)
		}
		return out
	}

	bad := garble(data, nearest)
	got, err := NewReader(bytes.NewReader(bad)).ReadRange(lo, hi)
	if !errors.Is(err, ErrCorruptBlock) || len(got) != 0 {
		t.Fatalf("strict ReadRange: %d frames, err %v; want ErrCorruptBlock", len(got), err)
	}

	allBad := data
	for _, e := range cps {
		allBad = garble(allBad, e)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		lost   int
	}{
		{"earlier checkpoint", bad, 1},
		{"block 0", allBad, len(cps)},
	} {
		r := NewReaderWith(bytes.NewReader(tc.stream), ReaderOptions{Resync: true})
		got, err := r.ReadRange(lo, hi)
		if err != nil || !frameSlicesEqual(got, want[lo:hi]) {
			t.Fatalf("%s: Resync ReadRange: err %v", tc.name, err)
		}
		st := r.SalvageStats()
		fe := st.FirstError
		if fe == nil || fe.Block != nearest.Seq || fe.Offset != nearest.Offset || !errors.Is(fe, ErrCorruptBlock) {
			t.Fatalf("%s: FirstError %v, want checkpoint %d at offset %d", tc.name, fe, nearest.Seq, nearest.Offset)
		}
		st.FirstError = nil
		if wantStats := (SalvageStats{CorruptFrames: tc.lost}); !statsEqual(st, wantStats) {
			t.Fatalf("%s: SalvageStats %+v, want %+v", tc.name, st, wantStats)
		}
	}
}

// statsEqual compares SalvageStats, treating nil and empty LostRanges
// alike.
func statsEqual(a, b SalvageStats) bool {
	if len(a.LostRanges) == 0 && len(b.LostRanges) == 0 {
		a.LostRanges, b.LostRanges = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// TestCheckpointSkipNeedsEqualBytes: a reader skips the unpack and compare
// only for a checkpoint whose packed references equal those it verified.
// A later checkpoint carrying different references (CRC-valid) is still
// unpacked and compared, so a strict reader fails with ErrStateDesync at
// it, after delivering every snapshot before it.
func TestCheckpointSkipNeedsEqualBytes(t *testing.T) {
	frames := makeFrames(16, 90, 33)
	data := writeSeekStream(t, frames, Config{ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 1})
	// Re-frame the stream with the second checkpoint's axis-2 reference
	// nudged.
	out := []byte(streamMagicV2)
	checkpoints := 0
	for off := len(streamMagicV2); off < len(data); {
		typ, seq := data[off+4], binary.LittleEndian.Uint32(data[off+5:])
		n := int(binary.LittleEndian.Uint32(data[off+9:]))
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		off += frameHeaderSize + n + frameCRCSize
		if typ == frameCheckpoint {
			if checkpoints++; checkpoints == 2 {
				st := &CheckpointState{}
				if err := st.UnmarshalBinary(payload); err != nil {
					t.Fatal(err)
				}
				st.Axes[2].Ref[7] += 0.5
				var err error
				if payload, err = st.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var hdr [frameHeaderSize]byte
		copy(hdr[:], frameSync[:])
		hdr[4] = typ
		binary.LittleEndian.PutUint32(hdr[5:], seq)
		binary.LittleEndian.PutUint32(hdr[9:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[13:], crc32.Checksum(hdr[4:13], crcTable))
		out = append(append(out, hdr[:]...), payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	}
	got, err := NewReader(bytes.NewReader(out)).ReadAll()
	if !errors.Is(err, ErrStateDesync) || len(got) != 8 {
		t.Fatalf("read %d snapshots, err %v; want 8 then ErrStateDesync", len(got), err)
	}
}
