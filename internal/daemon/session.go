package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/budget"
)

// Session lifecycle. A session is created active, moves to draining when
// its ingest side is being stopped (close, delete, eviction or server
// drain), and ends closed. A compression or budget failure makes the
// session sticky-failed (state still advances to closed via finish); the
// error is reported on every subsequent request.
const (
	stateActive   = "active"
	stateDraining = "draining"
	stateClosed   = "closed"
)

// ingestBatch is one queued unit of accepted-but-not-yet-compressed
// snapshots, together with its memory accounting: tx holds the global
// budget reservation for the raw bytes, size the amount charged against
// the per-session cap. The pump releases both once the batch is written.
// A batch with a non-nil barrier carries no frames: the pump closes the
// channel when it reaches it, i.e. once every batch queued before it has
// been committed.
type ingestBatch struct {
	frames  []mdz.Frame
	tx      *budget.Tx
	size    int64
	barrier chan struct{}
}

// session is one tenant-owned compression stream: a stateful Writer whose
// container accumulates in memory, fed by a bounded ingest queue consumed
// by a single pump goroutine (preserving frame order while HTTP handlers
// return early), all charged against per-session and global memory caps.
type session struct {
	id     string
	tenant string
	cfg    mdz.Config
	srv    *Server

	// ctx is cancelled on destroy/failure; it is also the compressor's
	// Config.Context, so cancellation aborts in-flight batch kernels.
	ctx    context.Context
	cancel context.CancelFunc

	ingest   chan ingestBatch
	done     chan struct{} // closed when the pump exits
	stopOnce sync.Once

	mu       sync.Mutex
	buf      bytes.Buffer // container bytes flushed so far
	w        *mdz.Writer  // guarded by the pump, not mu — see sink
	state    string
	err      error // sticky first failure
	frames   int64 // snapshots accepted (acknowledged to the client)
	rawBytes int64 // uncompressed size of the snapshots compressed so far
	reserved int64 // bytes charged against the per-session cap
	enq      sync.WaitGroup
	lastUsed time.Time

	// committed counts the accepted snapshots the pump has written to the
	// Writer and flushed (guarded by mu). Those of a block still below
	// BufferSize wait in the Writer and reach the container with the next
	// full block or at close.
	committed int64

	// containerTx holds the global-budget reservation for the retained
	// container bytes; it lives until destroy.
	containerTx *budget.Tx
}

// errSessionClosed maps to 409: the client wrote to a closed stream.
var errSessionClosed = errors.New("session is closed")

// sink is the Writer's destination. It charges every flushed container
// byte against the session and global budgets before retaining it, so a
// session that outgrows its cap fails its own stream instead of the
// process. Writer methods are only ever called while mu is NOT held (the
// pump and the drain path own the Writer), so taking mu here cannot
// deadlock.
type sink struct{ s *session }

func (k sink) Write(p []byte) (int, error) {
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit := s.srv.opts.MemPerSession; limit > 0 && s.reserved+int64(len(p)) > limit {
		return 0, fmt.Errorf("container needs %d bytes, session cap is %d: %w",
			s.reserved+int64(len(p)), limit, budget.ErrExceeded)
	}
	if err := s.containerTx.Reserve(int64(len(p))); err != nil {
		return 0, err
	}
	s.reserved += int64(len(p))
	s.buf.Write(p)
	return len(p), nil
}

// touch refreshes the idle-eviction clock.
func (s *session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// enqueue hands a batch to the pump, blocking when the queue is full —
// that stall propagates up the HTTP request as backpressure. The batch is
// charged against both budgets first; on any refusal nothing is retained.
// A nil return means the snapshots are accepted: they will be compressed
// even if the session is closed immediately after.
func (s *session) enqueue(frames []mdz.Frame) error {
	size := int64(0)
	for _, f := range frames {
		size += wireFrameBytes(f.N())
	}
	s.mu.Lock()
	if s.state != stateActive {
		s.mu.Unlock()
		return errSessionClosed
	}
	if err := s.err; err != nil {
		s.mu.Unlock()
		return err
	}
	if limit := s.srv.opts.MemPerSession; limit > 0 && s.reserved+size > limit {
		s.mu.Unlock()
		return fmt.Errorf("ingest of %d bytes over the %d-byte session cap: %w", size, limit, budget.ErrExceeded)
	}
	tx := s.srv.mem.Begin()
	if err := tx.Reserve(size); err != nil {
		s.mu.Unlock()
		tx.Close()
		return err
	}
	s.reserved += size
	s.frames += int64(len(frames))
	s.lastUsed = time.Now()
	// Registering with enq under the same mu as the state check is what
	// lets stopIngest close the channel safely: once it flips the state
	// and enq.Wait returns, no send can be pending or arrive later.
	s.enq.Add(1)
	s.mu.Unlock()
	defer s.enq.Done()

	select {
	case s.ingest <- ingestBatch{frames: frames, tx: tx, size: size}:
		return nil
	case <-s.ctx.Done():
		tx.Close()
		s.mu.Lock()
		s.reserved -= size
		s.frames -= int64(len(frames))
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = context.Cause(s.ctx)
		}
		return err
	}
}

// pump is the session's single consumer: it preserves frame order, feeds
// the Writer, flushes the container after every batch so concurrent reads
// see current bytes, and releases each batch's memory charges. A write
// failure is sticky but the loop keeps draining so queued reservations are
// always returned.
func (s *session) pump() {
	defer close(s.done)
	for b := range s.ingest {
		if b.barrier != nil {
			close(b.barrier)
			continue
		}
		var raw, committed int64
		if s.failed() == nil {
			if err := s.writeBatch(b.frames); err != nil {
				s.fail(err)
			} else {
				committed = int64(len(b.frames))
				for _, f := range b.frames {
					raw += int64(f.N()) * 3 * 8
				}
			}
		}
		b.tx.Close()
		s.mu.Lock()
		s.reserved -= b.size
		s.rawBytes += raw
		s.committed += committed
		s.mu.Unlock()
	}
}

// sync returns once the pump has committed every batch accepted before the
// call, with the session's sticky error if the stream failed. ctx bounds
// the wait (the requesting client may go away).
func (s *session) sync(ctx context.Context) error {
	s.mu.Lock()
	if s.state != stateActive {
		// Ingest is stopping: stopIngest drains the queue, and the pump
		// exits only after committing everything accepted.
		s.mu.Unlock()
		select {
		case <-s.done:
			return s.failed()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Same registration as enqueue, so stopIngest cannot close the queue
	// under the send.
	s.enq.Add(1)
	s.mu.Unlock()
	barrier := make(chan struct{})
	select {
	case s.ingest <- ingestBatch{barrier: barrier}:
		s.enq.Done()
	case <-s.ctx.Done():
		s.enq.Done()
		if err := s.failed(); err != nil {
			return err
		}
		return context.Cause(s.ctx)
	case <-ctx.Done():
		s.enq.Done()
		return ctx.Err()
	}
	select {
	case <-barrier:
		return s.failed()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *session) writeBatch(frames []mdz.Frame) error {
	for _, f := range frames {
		if err := s.w.WriteFrame(f); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// fail records the first error and cancels the session context, waking
// any handler blocked on the full queue.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
	s.srv.tel.failures.Inc()
}

func (s *session) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// stopIngest refuses new snapshots and waits until every accepted one has
// been compressed (or charged to the sticky error). Safe to call from any
// number of goroutines; all of them block until the pump has exited.
func (s *session) stopIngest() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		if s.state == stateActive {
			s.state = stateDraining
		}
		s.mu.Unlock()
		s.enq.Wait()
		close(s.ingest)
	})
	<-s.done
}

// finish drains the queue and closes the Writer, finalizing the container
// (trailer included). Idempotent; returns the session's sticky error if
// the stream failed at any point.
func (s *session) finish() error {
	s.stopIngest()
	s.mu.Lock()
	if s.state == stateClosed {
		err := s.err
		s.mu.Unlock()
		return err
	}
	w := s.w
	s.mu.Unlock()
	// Close writes through sink, which takes mu — so mu must not be held.
	cerr := w.Close()
	s.mu.Lock()
	s.state = stateClosed
	if s.err == nil && cerr != nil {
		s.err = cerr
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// release returns every byte the session still holds to the global budget.
// Called once, by the server, when the session leaves the registry.
func (s *session) release() {
	s.cancel()
	s.stopIngest()
	s.mu.Lock()
	s.containerTx.Close()
	s.reserved = 0
	s.buf.Reset()
	s.state = stateClosed
	s.mu.Unlock()
}

// snapshot returns the container bytes flushed so far, the committed-frame
// watermark taken with them, and whether the stream is final. The slice
// aliases the buffer's array but stays valid and immutable: the buffer is
// append-only, and growth reallocates rather than moving bytes under a
// reader.
func (s *session) snapshot() (data []byte, committed int64, closed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Bytes(), s.committed, s.state == stateClosed, s.err
}

// info is the session document served by the listing and detail endpoints.
type info struct {
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	State           string  `json:"state"`
	Frames          int64   `json:"frames"`
	CommittedFrames int64   `json:"committed_frames"`
	ContainerBytes  int     `json:"container_bytes"`
	RawBytes        int64   `json:"raw_bytes"`
	CompBytes       int64   `json:"compressed_bytes"`
	Error           string  `json:"error,omitempty"`
	IdleSeconds     float64 `json:"idle_seconds"`
}

func (s *session) describe() info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := info{
		ID: s.id, Tenant: s.tenant, State: s.state, Frames: s.frames,
		CommittedFrames: s.committed,
		ContainerBytes:  s.buf.Len(),
		RawBytes:        s.rawBytes,
		CompBytes:       int64(s.buf.Len()),
		IdleSeconds:     time.Since(s.lastUsed).Seconds(),
	}
	if s.err != nil {
		in.Error = s.err.Error()
	}
	return in
}
