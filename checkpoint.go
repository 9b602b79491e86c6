package mdz

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/mdz/mdz/internal/bitstream"
	"github.com/mdz/mdz/internal/budget"
	"github.com/mdz/mdz/internal/core"
	"github.com/mdz/mdz/internal/kmeans"
	"github.com/mdz/mdz/internal/lossless"
	"github.com/mdz/mdz/internal/pool"
)

// AxisState is the cross-batch compressor state of one axis: the absolute
// error bound and quantization scale in effect, the fitted k-means level
// model (λ, μ), the concrete method currently selected, and the quantized
// snapshot-0 reference used by MT prediction.
type AxisState struct {
	ErrorBound    float64
	QuantScale    int
	K             int
	LevelDistance float64
	LevelOrigin   float64
	Method        Method
	Ref           []float64
}

// CheckpointState is everything needed to restart compression or
// decompression mid-stream: per-axis state plus the running batch index.
// Writer embeds it in checkpoint blocks every Config.CheckpointInterval
// data blocks; Reader reseeds from it after corruption.
type CheckpointState struct {
	// Batch is the number of batches encoded before this checkpoint.
	Batch int
	// Axes holds the X, Y, Z axis states.
	Axes [3]AxisState
	// Format is the wire-format version of the stream the checkpoint
	// belongs to: 0 or 2 for v2, 3 for the read-only v3, whose
	// checkpoints pack their reference snapshots with the v3 LZ backend.
	// A v3 checkpoint reseeds a Decompressor; it cannot be marshaled or
	// imported into a Compressor, because nothing writes v3 any more.
	Format int

	// pack, when set, is the exporting stream's references in packed
	// form; MarshalBinary reuses an axis's bytes while its Ref still holds
	// exactly the packed values.
	pack *refPack
}

const (
	checkpointVersion   = 1
	checkpointVersionV3 = 2
)

// checkpointBackend compresses the reference snapshots inside checkpoint
// payloads. The reference values are quantized reconstructions, so their
// byte patterns repeat and LZ shrinks them well. v3 checkpoints used the
// dual-lane v3 backend, matching the rest of the stream.
var (
	checkpointBackend   = lossless.LZ{}
	checkpointBackendV3 = lossless.LZ{V3: true}
)

// errV3Resume refuses to continue a format-v3 run from its checkpoint.
var errV3Resume = fmt.Errorf("%w: checkpoint format v3 is read-only; a v3 stream cannot be resumed", ErrStateDesync)

// refPack is a stream's per-axis MT references in checkpoint wire form.
// The references never change after the stream's first block, so a
// Compressor packs them once (Compressor.state) and every checkpoint and
// WriterState it emits reuses the bytes.
type refPack struct {
	refs [3][]float64 // the packed references; read-only
	secs [3][]byte    // their LZ-packed float64 images
}

// packRef LZ-packs one reference snapshot for a checkpoint payload.
func packRef(ref []float64) ([]byte, error) {
	return checkpointBackend.Compress(bitstream.AppendFloat64s(nil, ref))
}

// sameFloats reports whether a and b hold bit-identical values.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// MarshalBinary encodes the checkpoint into the self-contained payload
// format carried by checkpoint blocks. Format 3 checkpoints are read-only
// and do not marshal.
func (st *CheckpointState) MarshalBinary() ([]byte, error) {
	if st.Batch < 0 {
		return nil, fmt.Errorf("mdz: negative checkpoint batch index %d", st.Batch)
	}
	if st.Format == 3 {
		return nil, errors.New("mdz: checkpoint format v3 is read-only")
	}
	out := []byte{checkpointVersion}
	out = bitstream.AppendUvarint(out, uint64(st.Batch))
	for axis := range st.Axes {
		ax := &st.Axes[axis]
		out = bitstream.AppendFloat64(out, ax.ErrorBound)
		out = bitstream.AppendUvarint(out, uint64(ax.QuantScale))
		out = bitstream.AppendUvarint(out, uint64(ax.K))
		out = bitstream.AppendFloat64(out, ax.LevelDistance)
		out = bitstream.AppendFloat64(out, ax.LevelOrigin)
		out = append(out, byte(ax.Method))
		var packed []byte
		if p := st.pack; p != nil && sameFloats(p.refs[axis], ax.Ref) {
			packed = p.secs[axis]
		} else {
			var err error
			if packed, err = packRef(ax.Ref); err != nil {
				return nil, err
			}
		}
		out = bitstream.AppendUvarint(out, uint64(len(ax.Ref)))
		out = bitstream.AppendSection(out, packed)
	}
	return out, nil
}

// UnmarshalBinary inverts MarshalBinary. Malformed payloads report
// ErrCorruptBlock.
func (st *CheckpointState) UnmarshalBinary(data []byte) error {
	cp, err := parseCheckpoint(data)
	if err != nil {
		return err
	}
	if err := cp.unpack(nil, pool.New(0), nil); err != nil {
		return err
	}
	*st = cp.st
	return nil
}

// packedCheckpoint is a checkpoint payload parsed up to its reference
// snapshots: every scalar field decoded and bounds-checked, the references
// still LZ-packed. Parsing costs next to nothing; unpack does the
// decompression, which a Reader defers until a block needs the references
// and skips for a checkpoint whose packed references it already holds.
type packedCheckpoint struct {
	st CheckpointState // Axes[].Ref stay nil until unpack
	// refs holds each axis's reference exactly as on the wire: its
	// uvarint length followed by the packed section. Equal refs (in the
	// same Format) unpack to equal references.
	refs [3][]byte
	lens [3]uint64
	secs [3][]byte // the packed sections inside refs
}

// parseCheckpoint parses a checkpoint payload without unpacking its
// references. The result aliases data.
func parseCheckpoint(data []byte) (*packedCheckpoint, error) {
	cp := &packedCheckpoint{}
	st := &cp.st
	br := bitstream.NewByteReader(data)
	ver, err := br.ReadByte()
	if err != nil || (ver != checkpointVersion && ver != checkpointVersionV3) {
		return nil, fmt.Errorf("%w: unsupported checkpoint version", ErrCorruptBlock)
	}
	st.Format = 2
	if ver == checkpointVersionV3 {
		st.Format = 3
	}
	batch, err := br.ReadUvarint()
	if err != nil || batch > 1<<40 {
		return nil, fmt.Errorf("%w: bad checkpoint batch index", ErrCorruptBlock)
	}
	st.Batch = int(batch)
	for axis := range st.Axes {
		ax := &st.Axes[axis]
		if ax.ErrorBound, err = br.ReadFloat64(); err != nil {
			return nil, mapBlockErr(err)
		}
		scale, err := br.ReadUvarint()
		if err != nil || scale > 1<<31 {
			return nil, fmt.Errorf("%w: bad checkpoint quant scale", ErrCorruptBlock)
		}
		ax.QuantScale = int(scale)
		k, err := br.ReadUvarint()
		if err != nil || k > 1<<31 {
			return nil, fmt.Errorf("%w: bad checkpoint level count", ErrCorruptBlock)
		}
		ax.K = int(k)
		if ax.LevelDistance, err = br.ReadFloat64(); err != nil {
			return nil, mapBlockErr(err)
		}
		if ax.LevelOrigin, err = br.ReadFloat64(); err != nil {
			return nil, mapBlockErr(err)
		}
		mb, err := br.ReadByte()
		if err != nil {
			return nil, mapBlockErr(err)
		}
		ax.Method = Method(mb)
		refStart := len(data) - br.Len()
		n, err := br.ReadUvarint()
		if err != nil || n > 1<<33 {
			return nil, fmt.Errorf("%w: bad checkpoint reference length", ErrCorruptBlock)
		}
		if cp.secs[axis], err = br.ReadSection(); err != nil {
			return nil, mapBlockErr(err)
		}
		cp.lens[axis] = n
		cp.refs[axis] = data[refStart : len(data)-br.Len()]
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: trailing checkpoint bytes", ErrCorruptBlock)
	}
	return cp, nil
}

// unpack decompresses the three reference snapshots concurrently on p,
// charging them against tx (nil is unlimited): a checkpoint claiming
// reference lengths past the budget is rejected with ErrBudgetExceeded
// before the allocations happen. The lowest failing axis's error wins.
func (cp *packedCheckpoint) unpack(ctx context.Context, p *pool.Pool, tx *budget.Tx) error {
	backend := checkpointBackend
	if cp.st.Format == 3 {
		backend = checkpointBackendV3
	}
	return p.RunContext(ctx, 3, func(axis int) error {
		n := cp.lens[axis]
		// Charge the float slice up front; the packed bytes' own expansion
		// is charged inside the budget-aware backend.
		if err := tx.Reserve(8 * int64(n)); err != nil {
			return err
		}
		refBytes, err := lossless.DecompressTx(backend, cp.secs[axis], tx)
		if err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				return err
			}
			return fmt.Errorf("%w: checkpoint reference: %w", ErrCorruptBlock, err)
		}
		if uint64(len(refBytes)) != 8*n {
			return fmt.Errorf("%w: checkpoint reference length mismatch", ErrCorruptBlock)
		}
		if n == 0 {
			return nil
		}
		ref, err := bitstream.DecodeFloat64s(nil, refBytes)
		cp.st.Axes[axis].Ref = ref
		return mapBlockErr(err)
	})
}

// sameRefs reports whether two parsed checkpoints carry byte-identical
// packed references, which therefore unpack to identical snapshots.
func (cp *packedCheckpoint) sameRefs(o *packedCheckpoint) bool {
	if cp.st.Format != o.st.Format {
		return false
	}
	for axis := range cp.refs {
		if !bytes.Equal(cp.refs[axis], o.refs[axis]) {
			return false
		}
	}
	return true
}

// ownRefs returns a copy of cp's packed references that no longer aliases
// the payload it was parsed from — all sameRefs compares.
func (cp *packedCheckpoint) ownRefs() *packedCheckpoint {
	o := &packedCheckpoint{}
	o.st.Format = cp.st.Format
	for axis := range cp.refs {
		o.refs[axis] = append([]byte(nil), cp.refs[axis]...)
	}
	return o
}

// writerStateVersion versions the WriterState wire encoding.
const writerStateVersion = 1

// Writer-state flag bits.
const (
	writerStateOpened     = 1 << 0
	writerStateCheckpoint = 1 << 1
	// writerStateSeekIndex marks a state exported from an indexing Writer
	// (Config.SeekIndex); the payload then carries the seek-table entries
	// accumulated so far. States without the flag encode byte-identically
	// to the historical format.
	writerStateSeekIndex = 1 << 2
)

// maxWriterStatePending caps the claimed pending-snapshot dimensions a
// WriterState payload may carry before allocation.
const maxWriterStatePending = 1 << 20

// MarshalBinary encodes the writer state into a self-contained payload —
// the unit a draining server persists per live session.
func (st *WriterState) MarshalBinary() ([]byte, error) {
	out := []byte{writerStateVersion}
	var flags byte
	if st.Opened {
		flags |= writerStateOpened
	}
	if st.Checkpoint != nil {
		flags |= writerStateCheckpoint
	}
	if st.SeekIndex {
		flags |= writerStateSeekIndex
	}
	out = append(out, flags)
	out = bitstream.AppendUvarint(out, uint64(st.Seq))
	for _, v := range []int64{st.Blocks, st.Frames, st.RawBytes, st.CompBytes} {
		if v < 0 {
			return nil, fmt.Errorf("mdz: negative writer-state counter %d", v)
		}
		out = bitstream.AppendUvarint(out, uint64(v))
	}
	if st.Checkpoint != nil {
		cp, err := st.Checkpoint.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out = bitstream.AppendSection(out, cp)
	}
	out = bitstream.AppendUvarint(out, uint64(len(st.Pending)))
	for _, f := range st.Pending {
		n := f.N()
		if len(f.Y) != n || len(f.Z) != n {
			return nil, errors.New("mdz: pending frame with inconsistent axis lengths")
		}
		out = bitstream.AppendUvarint(out, uint64(n))
		out = bitstream.AppendFloat64s(out, f.X)
		out = bitstream.AppendFloat64s(out, f.Y)
		out = bitstream.AppendFloat64s(out, f.Z)
	}
	if st.SeekIndex {
		out = bitstream.AppendSection(out, appendSeekIndex(nil, st.Index))
	}
	return out, nil
}

// UnmarshalBinary inverts MarshalBinary. Malformed payloads report
// ErrCorruptBlock.
func (st *WriterState) UnmarshalBinary(data []byte) error {
	br := bitstream.NewByteReader(data)
	ver, err := br.ReadByte()
	if err != nil || ver != writerStateVersion {
		return fmt.Errorf("%w: unsupported writer-state version", ErrCorruptBlock)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return mapBlockErr(err)
	}
	st.Opened = flags&writerStateOpened != 0
	seq, err := br.ReadUvarint()
	if err != nil || seq > 1<<32-1 {
		return fmt.Errorf("%w: bad writer-state sequence", ErrCorruptBlock)
	}
	st.Seq = uint32(seq)
	for _, dst := range []*int64{&st.Blocks, &st.Frames, &st.RawBytes, &st.CompBytes} {
		v, err := br.ReadUvarint()
		if err != nil || v > 1<<62 {
			return fmt.Errorf("%w: bad writer-state counter", ErrCorruptBlock)
		}
		*dst = int64(v)
	}
	st.Checkpoint = nil
	if flags&writerStateCheckpoint != 0 {
		sec, err := br.ReadSection()
		if err != nil {
			return mapBlockErr(err)
		}
		st.Checkpoint = &CheckpointState{}
		if err := st.Checkpoint.UnmarshalBinary(sec); err != nil {
			return err
		}
	}
	np, err := br.ReadUvarint()
	if err != nil || np > maxWriterStatePending {
		return fmt.Errorf("%w: bad writer-state pending count", ErrCorruptBlock)
	}
	st.Pending = make([]Frame, np)
	for i := range st.Pending {
		n, err := br.ReadUvarint()
		if err != nil || n > maxWriterStatePending {
			return fmt.Errorf("%w: bad writer-state frame length", ErrCorruptBlock)
		}
		f := Frame{}
		for _, axis := range []*[]float64{&f.X, &f.Y, &f.Z} {
			raw, err := br.ReadBytes(8 * int(n))
			if err != nil {
				return mapBlockErr(err)
			}
			if *axis, err = bitstream.DecodeFloat64s(nil, raw); err != nil {
				return mapBlockErr(err)
			}
		}
		st.Pending[i] = f
	}
	st.SeekIndex = flags&writerStateSeekIndex != 0
	st.Index = nil
	if st.SeekIndex {
		sec, err := br.ReadSection()
		if err != nil {
			return mapBlockErr(err)
		}
		if st.Index, err = parseSeekIndex(sec); err != nil {
			return err
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("%w: trailing writer-state bytes", ErrCorruptBlock)
	}
	return nil
}

// ExportState snapshots the compressor's cross-batch state after at least
// one compressed batch; it is what Writer embeds in checkpoint blocks. The
// returned state shares no mutable memory with the compressor.
func (c *Compressor) ExportState() (*CheckpointState, error) {
	st, err := c.state()
	if err != nil {
		return nil, err
	}
	for axis := range st.Axes {
		st.Axes[axis].Ref = append([]float64(nil), st.Axes[axis].Ref...)
	}
	return st, nil
}

// state is ExportState with the references shared with the encoders, which
// never mutate them, and their packed wire form attached: the stream's
// references are packed once, on the first call after batch 0, the three
// axes concurrently on the compressor's pool.
func (c *Compressor) state() (*CheckpointState, error) {
	st := &CheckpointState{}
	var refs [3][]float64
	for axis, e := range c.enc {
		if e == nil {
			return nil, errors.New("mdz: ExportState before the first batch")
		}
		es := e.ExportState()
		st.Batch = es.Batch
		st.Axes[axis] = AxisState{
			ErrorBound:    es.ErrorBound,
			QuantScale:    es.QuantScale,
			K:             es.K,
			LevelDistance: es.LevelDistance,
			LevelOrigin:   es.LevelOrigin,
			Method:        es.Current,
			Ref:           es.Ref,
		}
		refs[axis] = es.Ref
	}
	if c.pack == nil {
		p := &refPack{refs: refs}
		err := c.pool.Run(3, func(axis int) (err error) {
			p.secs[axis], err = packRef(refs[axis])
			return err
		})
		if err != nil {
			return nil, err
		}
		c.pack = p
	}
	st.pack = c.pack
	return st, nil
}

// ImportState restores state exported by ExportState into a fresh
// Compressor built with an equivalent Config, so compression can resume
// mid-stream: the next CompressBatch produces bytes identical to what the
// original compressor would have emitted. The error-bound and scale come
// from the state (they were resolved from the first batch of the original
// run), so Config.Mode is not re-applied. A format v3 checkpoint is
// refused with ErrStateDesync.
func (c *Compressor) ImportState(st *CheckpointState) error {
	if st.Format == 3 {
		return errV3Resume
	}
	for axis := range c.enc {
		if c.enc[axis] != nil {
			return fmt.Errorf("%w: ImportState on a used compressor", ErrStateDesync)
		}
	}
	for axis := range c.enc {
		ax := &st.Axes[axis]
		enc, err := core.NewEncoder(core.Params{
			ErrorBound:         ax.ErrorBound,
			QuantScale:         ax.QuantScale,
			Method:             c.cfg.Method,
			Sequence:           c.cfg.Sequence,
			AdaptInterval:      c.cfg.AdaptInterval,
			ADPRetrialInterval: c.cfg.ADPRetrialInterval,
			KMeans:             kmeans.Options{Seed: int64(axis) + 1},
			Shards:             c.cfg.Shards,
			Pool:               c.pool,
		})
		if err != nil {
			return err
		}
		if err := enc.ImportState(core.EncoderState{
			ErrorBound:    ax.ErrorBound,
			QuantScale:    ax.QuantScale,
			K:             ax.K,
			LevelDistance: ax.LevelDistance,
			LevelOrigin:   ax.LevelOrigin,
			Current:       core.Method(ax.Method),
			Batch:         st.Batch,
			Ref:           ax.Ref,
		}); err != nil {
			return mapBlockErr(err)
		}
		c.enc[axis] = enc
	}
	return nil
}

// ImportState reseeds the decompressor's cross-block state (the per-axis
// MT reference snapshots) from a checkpoint, allowing decoding to resume
// at any block recorded after that checkpoint.
func (d *Decompressor) ImportState(st *CheckpointState) error {
	for axis := range st.Axes {
		ref := st.Axes[axis].Ref
		if ref == nil {
			return fmt.Errorf("%w: checkpoint carries no axis-%d reference", ErrStateDesync, axis)
		}
	}
	for axis, dec := range d.dec {
		dec.SetRef(st.Axes[axis].Ref)
	}
	return nil
}

// stateMatches reports whether the decompressor's established references
// agree bit-for-bit with the checkpoint (vacuously true for axes where the
// decompressor has no reference yet). A mismatch on a healthy stream means
// encoder and decoder have desynchronized.
func (d *Decompressor) stateMatches(st *CheckpointState) bool {
	for axis, dec := range d.dec {
		if ref := dec.Ref(); ref != nil && !sameFloats(ref, st.Axes[axis].Ref) {
			return false
		}
	}
	return true
}

// holdRefs clears the references of a decompressor resuming mid-stream:
// until ImportState supplies them, no block it decodes is adopted as the
// reference (core.Decoder.HoldRef).
func (d *Decompressor) holdRefs() {
	for _, dec := range d.dec {
		dec.HoldRef()
	}
}

// resetRefs clears the references; the next block decoded, which must be
// the stream's first, establishes them.
func (d *Decompressor) resetRefs() {
	for _, dec := range d.dec {
		dec.SetRef(nil)
	}
}

// seeded reports whether every axis decoder has an established MT
// reference (from decoding block 0 in order, or from a checkpoint).
func (d *Decompressor) seeded() bool {
	for _, dec := range d.dec {
		if dec.Ref() == nil {
			return false
		}
	}
	return true
}
