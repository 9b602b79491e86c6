package mdz

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// migrateWriter round-trips a Writer across a simulated process boundary:
// export, serialize, deserialize into fresh objects, resume over a copy of
// the container prefix. The prefix is read from out only after ExportState
// flushes the Writer's buffer — the ordering a real draining server must
// also respect. It returns the resumed writer and its buffer.
func migrateWriter(t *testing.T, w *Writer, out *bytes.Buffer, cfg Config) (*Writer, *bytes.Buffer) {
	t.Helper()
	st, err := w.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	prefix := out.Bytes()
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	wire := &WriterState{}
	if err := wire.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	buf := bytes.NewBuffer(append([]byte(nil), prefix...))
	resumed, err := ResumeWriter(buf, cfg, wire)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return resumed, buf
}

// TestWriterStateMigration is the session-migration contract behind the
// daemon's drain/restart: a stream split across two Writer lifetimes — the
// second resumed in a "new process" from serialized state — must be
// byte-identical to an unmigrated run and decode bit-identically, across
// split points landing mid-batch, on a block boundary, and before the
// first flushed block. The v3 cases resume the states a v3 Writer
// exported at the same splits (see checkV3Migration).
func TestWriterStateMigration(t *testing.T) {
	frames := makeFrames(23, 150, 7)
	for _, format := range []int{2, 3} {
		for _, method := range []Method{ADP, MT} {
			// BufferSize 4: split 10 is mid-batch (2 pending), split 8 is a
			// block boundary, split 2 precedes the first flushed block.
			// The _depth0 suffix keeps the subtest names that test
			// histories track.
			for _, split := range []int{10, 8, 2} {
				t.Run(fmt.Sprintf("v%d_%v_split%d_depth0", format, method, split), func(t *testing.T) {
					cfg := Config{
						ErrorBound: 1e-3, Method: method, BufferSize: 4,
						CheckpointInterval: 3,
					}

					var want bytes.Buffer
					full, err := NewWriter(&want, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range frames {
						if err := full.WriteFrame(f); err != nil {
							t.Fatal(err)
						}
					}
					if err := full.Close(); err != nil {
						t.Fatal(err)
					}

					if format == 3 {
						checkV3Migration(t, cfg, frames, split, want.Bytes())
						return
					}
					var first bytes.Buffer
					w1, err := NewWriter(&first, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range frames[:split] {
						if err := w1.WriteFrame(f); err != nil {
							t.Fatal(err)
						}
					}
					w2, buf := migrateWriter(t, w1, &first, cfg)
					for _, f := range frames[split:] {
						if err := w2.WriteFrame(f); err != nil {
							t.Fatal(err)
						}
					}
					if err := w2.Close(); err != nil {
						t.Fatal(err)
					}

					if !bytes.Equal(want.Bytes(), buf.Bytes()) {
						t.Fatalf("migrated container diverged: %d vs %d bytes", buf.Len(), want.Len())
					}
					wr, wc := full.Stats()
					gr, gc := w2.Stats()
					if wr != gr || wc != gc {
						t.Errorf("migrated Stats = (%d, %d), want (%d, %d)", gr, gc, wr, wc)
					}

					got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					ref, err := NewReader(bytes.NewReader(want.Bytes())).ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(ref) || len(got) != len(frames) {
						t.Fatalf("decoded %d snapshots, want %d", len(got), len(frames))
					}
					for ti := range ref {
						for i := range ref[ti].X {
							if math.Float64bits(ref[ti].X[i]) != math.Float64bits(got[ti].X[i]) ||
								math.Float64bits(ref[ti].Y[i]) != math.Float64bits(got[ti].Y[i]) ||
								math.Float64bits(ref[ti].Z[i]) != math.Float64bits(got[ti].Z[i]) {
								t.Fatalf("migrated decode diverged at t=%d i=%d", ti, i)
							}
						}
					}
				})
			}
		}
	}
}

// checkV3Migration resumes the WriterState a format v3 Writer exported
// after frames[:split] (a committed fixture) under cfg. State past the
// first block carries a v3 checkpoint and is refused with ErrStateDesync
// naming the format. State before it names no format: the resumed Writer
// appends v2 blocks behind the "MDZ3" magic, so the container is the v2
// reference want under the v3 magic and decodes identically.
func checkV3Migration(t *testing.T, cfg Config, frames []Frame, split int, want []byte) {
	t.Helper()
	st := &WriterState{}
	if err := st.UnmarshalBinary(readV3Fixture(t, fmt.Sprintf("writer_state_%v_split%d.bin", cfg.Method, split))); err != nil {
		t.Fatal(err)
	}
	if st.Frames+int64(len(st.Pending)) != int64(split) {
		t.Fatalf("fixture holds %d+%d frames, want %d", st.Frames, len(st.Pending), split)
	}
	requireFramesIdentical(t, frames[st.Frames:split], st.Pending, "pending")
	if st.Checkpoint != nil {
		_, err := ResumeWriter(&bytes.Buffer{}, cfg, st)
		if !errors.Is(err, ErrStateDesync) || !strings.Contains(err.Error(), "v3") {
			t.Fatalf("resume of a v3 checkpoint: err = %v, want ErrStateDesync naming v3", err)
		}
		return
	}
	if !st.Opened || st.CompBytes != int64(len(streamMagicV3)) {
		t.Fatalf("pre-block state: opened %v, %d container bytes", st.Opened, st.CompBytes)
	}
	buf := bytes.NewBufferString(streamMagicV3)
	w, err := ResumeWriter(buf, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[split:] {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if !bytes.Equal(got[4:], want[4:]) {
		t.Fatalf("resumed container diverged from the v2 run after the magic: %d vs %d bytes", len(got), len(want))
	}
	dec, err := NewReader(bytes.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReader(bytes.NewReader(want)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	requireFramesIdentical(t, ref, dec, "resumed decode")
}

// TestWriterStateGuards covers the refusal paths of the migration API.
func TestWriterStateGuards(t *testing.T) {
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3}, nil); err == nil {
		t.Error("ResumeWriter accepted nil state")
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3},
		&WriterState{Opened: true, Blocks: 2}); err == nil {
		t.Error("ResumeWriter accepted flushed blocks without a checkpoint")
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3},
		&WriterState{Seq: 3}); err == nil {
		t.Error("ResumeWriter accepted an advanced cursor on an unopened stream")
	}

	// A checkpoint of the read-only v3 format.
	v3 := &WriterState{}
	if err := v3.UnmarshalBinary(readV3Fixture(t, "writer_state_ADP.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3, BufferSize: 2}, v3); err == nil {
		t.Error("ResumeWriter accepted a v3 checkpoint")
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range makeFrames(4, 60, 1) {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	st, err := w.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Export after Close is refused; a never-written writer exports a
	// resumable zero state.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExportState(); err == nil {
		t.Error("ExportState after Close succeeded")
	}
	fresh, err := NewWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	zst, err := fresh.ExportState()
	if err != nil {
		t.Fatalf("ExportState on a fresh writer: %v", err)
	}
	if zst.Opened || zst.Checkpoint != nil || len(zst.Pending) != 0 {
		t.Errorf("fresh writer state not zero: %+v", zst)
	}
	if _, err := ResumeWriter(&bytes.Buffer{}, Config{ErrorBound: 1e-3}, zst); err != nil {
		t.Errorf("resume from a zero state: %v", err)
	}

	// Serialization rejects damage: truncations and trailing garbage.
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(WriterState).UnmarshalBinary(append(blob, 0)); err == nil {
		t.Error("trailing writer-state byte accepted")
	}
	for _, cut := range []int{0, 1, 2, len(blob) / 2, len(blob) - 1} {
		if err := new(WriterState).UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncated writer state (%d bytes) accepted", cut)
		}
	}
}
