package mdz

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	frames := makeFrames(27, 150, 41) // deliberately not a multiple of BS
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 10})
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
	raw, comp := w.Stats()
	if raw != int64(27*150*3*8) {
		t.Errorf("raw stats %d", raw)
	}
	if comp <= 0 || comp >= raw {
		t.Errorf("comp stats %d (raw %d)", comp, raw)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("got %d frames, want %d", len(got), len(frames))
	}
	for ti := range frames {
		for i := range frames[ti].X {
			for axis, pair := range [][2][]float64{
				{frames[ti].X, got[ti].X}, {frames[ti].Y, got[ti].Y}, {frames[ti].Z, got[ti].Z},
			} {
				if d := math.Abs(pair[0][i] - pair[1][i]); d > 0.05 {
					t.Fatalf("frame %d axis %d particle %d: error %v", ti, axis, i, d)
				}
			}
		}
	}
	// Further reads return EOF.
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("post-drain read: %v", err)
	}
}

func TestWriterCloseIdempotentAndGuards(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Config{ErrorBound: 1e-3})
	f := makeFrames(1, 10, 42)[0]
	if err := w.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := w.WriteFrame(f); err == nil {
		t.Error("write after Close accepted")
	}
}

// errSink fails every Write with a fixed error.
type errSink struct{ err error }

func (s errSink) Write([]byte) (int, error) { return 0, s.err }

// TestPipelineErrorPropagation: a sink failure must surface to the caller —
// at the latest on Close — and never get replaced by a later error; a Writer
// whose Close failed accepts no more frames. The depth0 subtest is the
// synchronous Writer, the only one the package has.
func TestPipelineErrorPropagation(t *testing.T) {
	sinkErr := errors.New("disk gone")
	frames := makeFrames(12, 100, 5)
	t.Run("depth0", func(t *testing.T) {
		w, err := NewWriter(errSink{sinkErr}, Config{
			ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Small frames live in the 1 MiB buffer until a flush, so the sink
		// failure may only materialize at Close — it must still be delivered,
		// not swallowed.
		for _, f := range frames {
			if err := w.WriteFrame(f); err != nil {
				if !errors.Is(err, sinkErr) {
					t.Fatalf("WriteFrame error = %v, want %v", err, sinkErr)
				}
				break
			}
		}
		if err := w.Close(); !errors.Is(err, sinkErr) {
			t.Fatalf("Close error = %v, want %v", err, sinkErr)
		}
		if err := w.WriteFrame(frames[0]); err == nil {
			t.Fatal("WriteFrame after failed Close succeeded")
		}
	})
}

// TestPipelineFlushSurfacesSinkError: Flush reports the sink failure
// instead of claiming delivery.
func TestPipelineFlushSurfacesSinkError(t *testing.T) {
	sinkErr := errors.New("net down")
	w, err := NewWriter(errSink{sinkErr}, Config{
		ErrorBound: 1e-3, BufferSize: 4, CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range makeFrames(8, 100, 6) {
		if err := w.WriteFrame(f); err != nil {
			if !errors.Is(err, sinkErr) {
				t.Fatalf("WriteFrame error = %v, want %v", err, sinkErr)
			}
			break
		}
	}
	if err := w.Flush(); !errors.Is(err, sinkErr) {
		t.Fatalf("Flush error = %v, want %v", err, sinkErr)
	}
}

func TestWriterInvalidConfig(t *testing.T) {
	if _, err := NewWriter(io.Discard, Config{}); err == nil {
		t.Error("zero ErrorBound accepted")
	}
}

func TestReaderErrors(t *testing.T) {
	// Empty stream → EOF.
	if _, err := NewReader(bytes.NewReader(nil)).ReadFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("empty: %v", err)
	}
	// Wrong magic.
	if _, err := NewReader(bytes.NewReader([]byte("NOPE1234"))).ReadFrame(); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated mid-block.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Config{ErrorBound: 1e-3, BufferSize: 2})
	for _, f := range makeFrames(4, 20, 43) {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r := NewReader(bytes.NewReader(full[:len(full)-7]))
	var err error
	for err == nil {
		_, err = r.ReadFrame()
	}
	if errors.Is(err, io.EOF) {
		t.Error("truncation silently reported as EOF")
	}
}

func TestEmptyWriterProducesEmptyOutput(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Config{ErrorBound: 1e-3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty stream wrote %d bytes", buf.Len())
	}
}
