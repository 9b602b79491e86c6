package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/kmeans"
)

// ErrState is returned when imported encoder/decoder state is inconsistent
// with the configured parameters or internally invalid.
var ErrState = errors.New("core: inconsistent codec state")

// EncoderState is the cross-batch state of one axis encoder — everything
// beyond Params that EncodeBatch consults. Exporting it after batch b and
// importing it into a fresh Encoder built with the same Params yields
// byte-identical blocks for batches b+1, b+2, … It is also exactly the
// state a Decoder needs to be reseeded mid-stream (only Ref matters on the
// decode side; the rest lets a crashed writer resume).
type EncoderState struct {
	// ErrorBound and QuantScale echo the effective (filled) Params so a
	// restarting process can rebuild the encoder without re-deriving the
	// absolute bound from a first batch it no longer has.
	ErrorBound float64
	QuantScale int
	// K, LevelDistance (λ) and LevelOrigin (μ) are the k-means level model
	// fitted on snapshot 0 of the run.
	K             int
	LevelDistance float64
	LevelOrigin   float64
	// Current is the concrete method in use (ADP resolves to one of three).
	Current Method
	// Batch is the number of batches encoded so far (drives the ADP
	// re-evaluation schedule).
	Batch int
	// Ref is the reconstructed (quantized) snapshot 0 of the run, the MT
	// prediction reference. Nil before the first batch.
	Ref []float64
}

// ExportState snapshots the encoder's cross-batch state. The returned Ref
// is the encoder's own, which it never mutates once set; callers must not
// mutate it either.
func (e *Encoder) ExportState() EncoderState {
	st := EncoderState{
		ErrorBound: e.p.ErrorBound,
		QuantScale: e.p.QuantScale,
		Current:    e.cur,
		Batch:      e.batch,
	}
	if e.km != nil {
		st.K = e.km.K
		st.LevelDistance = e.km.LevelDistance
		st.LevelOrigin = e.km.LevelOrigin
	}
	st.Ref = e.ref
	return st
}

// ImportState restores state exported by ExportState into an encoder built
// with matching Params. It must be called before the first EncodeBatch.
func (e *Encoder) ImportState(st EncoderState) error {
	if e.batch != 0 || e.km != nil {
		return fmt.Errorf("%w: ImportState on a used encoder", ErrState)
	}
	if st.ErrorBound != e.p.ErrorBound || st.QuantScale != e.p.QuantScale {
		return fmt.Errorf("%w: state bound/scale (%v, %d) differ from params (%v, %d)",
			ErrState, st.ErrorBound, st.QuantScale, e.p.ErrorBound, e.p.QuantScale)
	}
	if st.Batch < 0 {
		return fmt.Errorf("%w: negative batch index", ErrState)
	}
	if st.Batch > 0 {
		if !(st.LevelDistance > 0) || math.IsInf(st.LevelDistance, 0) || math.IsNaN(st.LevelOrigin) {
			return fmt.Errorf("%w: invalid level model (λ=%v, μ=%v)", ErrState, st.LevelDistance, st.LevelOrigin)
		}
		if st.Current != VQ && st.Current != VQT && st.Current != MT {
			return fmt.Errorf("%w: invalid current method %v", ErrState, st.Current)
		}
		e.km = &kmeans.Result{K: st.K, LevelDistance: st.LevelDistance, LevelOrigin: st.LevelOrigin}
		e.cur = st.Current
	}
	if st.Ref != nil {
		e.ref = append([]float64(nil), st.Ref...)
	}
	e.batch = st.Batch
	return nil
}

// Ref reports the decoder's MT prediction reference (the reconstructed
// snapshot 0 of the run), or nil before the first decoded block. The
// returned slice is the decoder's own; callers must not mutate it.
func (d *Decoder) Ref() []float64 { return d.ref }

// SetRef reseeds the decoder's MT prediction reference from a checkpoint,
// replacing any existing reference and ending a HoldRef. A nil ref clears
// it: the next decoded block, which must then be the run's first,
// establishes it again.
func (d *Decoder) SetRef(ref []float64) {
	d.hold = false
	if ref == nil {
		d.ref = nil
		return
	}
	d.ref = append([]float64(nil), ref...)
}

// HoldRef clears the reference for a decoder resuming mid-stream whose
// caller supplies it later through SetRef. Until then no decoded block is
// adopted as the reference — a mid-stream snapshot is not the run's
// snapshot 0 — and a block predicting from the reference fails with
// ErrOrder.
func (d *Decoder) HoldRef() {
	d.ref = nil
	d.hold = true
}

// UsesRef reports whether a block predicts from the run's snapshot-0
// reference — an MT block after the run's first — by peeking at its header
// bytes only. A block it reports false for decodes without a reference.
func UsesRef(blk []byte) bool {
	return len(blk) > 7 && string(blk[:4]) == blockMagic && Method(blk[5]) == MT && blk[7] == firstRef
}

// BlockInfo reports a block's concrete method, snapshot count and particle
// count by parsing only its header — no payload is decompressed. It is what
// a salvaging reader uses to account for blocks it skips without decoding.
func BlockInfo(blk []byte) (m Method, bs, n int, err error) {
	h, err := parseHeader(blk)
	if err != nil {
		return 0, 0, 0, err
	}
	return h.method, h.bs, h.n, nil
}

// SetFaultHook installs the fault-injection seam (see Params.FaultHook)
// after construction. Not safe to call concurrently with decoding; it
// exists for tests that need to force panics or deterministic
// cancellation inside shard workers.
func (d *Decoder) SetFaultHook(f func(op string, shard int)) { d.p.FaultHook = f }

// SetFaultHook is the encoder counterpart of Decoder.SetFaultHook.
func (e *Encoder) SetFaultHook(f func(op string, shard int)) { e.p.FaultHook = f }
