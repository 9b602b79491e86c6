package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	mdz "github.com/mdz/mdz"
	"github.com/mdz/mdz/internal/daemon"
	"github.com/mdz/mdz/internal/obshttp"
)

// Session shape of the daemon-sessions workload.
const (
	daemonClients   = 2  // closed-loop client goroutines
	daemonChunk     = 10 // snapshots per POST frames
	daemonReads     = 4  // ranged reads per session
	daemonReadCount = 5  // snapshots per ranged read
	daemonSample    = 8  // one session in this many is byte-compared
)

// daemonTraj is one input trajectory with everything its sessions are
// checked against: the local Writer's container for the same Config and
// frames, and that container's full decode.
type daemonTraj struct {
	frames    []mdz.Frame
	b         bounds
	raw       float64
	bodies    [][]byte // wire-format POST bodies, daemonChunk snapshots each
	container []byte
	decoded   []mdz.Frame
}

// daemonBench is the daemon-sessions workload: an in-process daemon on
// loopback, driven by closed-loop clients that each run whole sessions.
type daemonBench struct {
	r      *run
	trajs  []daemonTraj
	srv    *daemon.Server
	hs     *obshttp.Server
	base   string
	client *http.Client
	loops  int64 // clients started so far, each seeded apart
}

// daemonClient is one client goroutine's state and measurements.
type daemonClient struct {
	d   *daemonBench
	rng *rand.Rand
	tr  *tracer
	chk checker

	sessionMs  samples // create → delete, less the checking /stream fetch
	readMs     samples
	overheadMs samples // daemon read minus local ReadRange of the same window
	ingestMBps samples // raw bytes over create → close, per session
	rawIngest  float64
	container  float64
}

func runDaemon(r *run) error {
	d := &daemonBench{r: r}
	defer d.stop()
	if err := r.timeSetups(d.setup); err != nil {
		return err
	}
	r.inputStamp(r.sz.daemonAtoms, r.sz.daemonSnaps, daemonChunk)
	d.loop(r.window()/20, nil) // warm-up
	if !r.traced {
		cpu := cpuTime()
		cs := d.loop(r.window(), nil)
		cpu = cpuTime() - cpu
		var read, sess samples
		ingest, raw, container := 0.0, 0.0, 0.0
		for _, c := range cs {
			read = append(read, c.readMs...)
			sess = append(sess, c.sessionMs...)
			ingest += c.ingestMBps.median()
			raw += c.rawIngest
			container += c.container
			r.note("client ingest MB/s: %s", c.ingestMBps.timing())
		}
		r.note("sessions: %d, session ms: %s", len(sess), sess.timing())
		r.note("daemon read ms: %s", read.timing())
		readMB := float64(daemonReadCount*24*r.sz.daemonAtoms) / 1e6
		r.setCPU(cpu, raw/8)
		r.set("encode_mbps", "MB/s", ingest)
		r.set("decode_mbps", "MB/s", readMB/(read.median()/1e3))
		r.set("read_p50_ms", "ms", read.median())
		r.set("compression_ratio", "ratio", raw/container)
		r.set("nrmse", "ratio", r.chk.nrmse())
		return nil
	}

	var baseSess samples
	for _, c := range d.loop(r.window()/2, nil) {
		baseSess = append(baseSess, c.sessionMs...)
	}
	tr := newTracer(time.Now(), new(atomic.Int64))
	tel := telTotals{}
	var cr codecResult
	var container float64
	codec := func() error {
		for _, t := range d.trajs {
			res, err := codecPass(r, t.frames, daemonChunk, t.b, tr, tel)
			if err != nil {
				return err
			}
			cr.add(res)
			container += float64(len(t.container))
		}
		return nil
	}
	// Codec-only passes bracket the traced sessions, so the per-value core
	// costs see the same host as the sessions.
	if err := codec(); err != nil {
		return err
	}
	cs := d.loop(r.window()/2, tr)
	if err := codec(); err != nil {
		return err
	}
	var sess, overhead samples
	var raw float64
	for _, c := range cs {
		tr.merge(c.tr)
		sess = append(sess, c.sessionMs...)
		overhead = append(overhead, c.overheadMs...)
		raw += c.rawIngest
	}
	path, err := tr.write(r.workload)
	if err != nil {
		return err
	}
	r.note("spans: %d written to %s", len(tr.spans), path)

	p := map[string]float64{}
	codecMetrics(p, cr, tel)
	p["writer.overhead_bytes_share"] = ratio(container-cr.blockBytes, container)
	for _, call := range []string{"create", "ingest", "close", "read", "delete"} {
		ms := tr.durations("daemon." + call)
		p["daemon."+call+"_ms_p50"] = ms.median()
		p["daemon."+call+"_ms_p99"] = ms.quantile(0.99)
	}
	p["daemon.close_share"] = ratio(tr.durations("daemon.close").sum(), sess.sum())
	p["daemon.read_http_overhead_ms_p50"] = overhead.median()
	v := raw / 8
	p["session.unattributed_ns_per_value"] = ratio(tr.self["session/"+unattributed], v)
	p["daemon.self_ns_per_value"] = ratio(tr.self["session/daemon"], v)
	p["trace.overhead_share"] = sess.median()/baseSess.median() - 1
	r.emitPerLayer(p)
	return nil
}

// setup starts the daemon on loopback and prepares the trajectories and
// their local reference containers.
func (d *daemonBench) setup() error {
	d.stop()
	srv, err := daemon.New(daemon.Options{})
	if err != nil {
		return err
	}
	d.srv = srv
	d.hs, err = obshttp.Serve("127.0.0.1:0", srv.Handler(), nil)
	if err != nil {
		return err
	}
	d.base = "http://" + d.hs.Addr()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, DisableCompression: true}}
	rng := rand.New(rand.NewSource(d.r.seed))
	d.trajs = make([]daemonTraj, d.r.sz.daemonPool)
	for i := range d.trajs {
		t := &d.trajs[i]
		t.frames = liquid(rng.Int63(), d.r.sz.daemonAtoms, d.r.sz.daemonSnaps)
		t.b = boundsOf(t.frames, daemonChunk, errorBound)
		t.raw = float64(rawBytes(t.frames))
		for _, chunk := range mdz.Batch(t.frames, daemonChunk) {
			t.bodies = append(t.bodies, wireBody(chunk))
		}
		var buf bytes.Buffer
		w, err := mdz.NewWriter(&buf, mdz.Config{ErrorBound: errorBound, SeekIndex: true})
		if err != nil {
			return err
		}
		for _, f := range t.frames {
			if err := w.WriteFrame(f); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		t.container = buf.Bytes()
		if t.decoded, err = mdz.NewReader(bytes.NewReader(t.container)).ReadAll(); err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the listener and the daemon down and waits for both.
func (d *daemonBench) stop() {
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := d.hs.Shutdown(ctx); err != nil {
			d.r.note("daemon listener shutdown: %v", err)
		}
		cancel()
		d.hs = nil
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
		d.client = nil
	}
	if d.srv != nil {
		d.srv.Close()
		d.srv = nil
	}
}

// loop runs daemonClients closed-loop clients for dur and returns them
// once every one has finished its last session. With tr set, each client
// traces into its own tracer sharing tr's clock and operation IDs.
func (d *daemonBench) loop(dur time.Duration, tr *tracer) []*daemonClient {
	deadline := time.Now().Add(dur)
	cs := make([]*daemonClient, daemonClients)
	var wg sync.WaitGroup
	for i := range cs {
		d.loops++
		c := &daemonClient{d: d, rng: rand.New(rand.NewSource(d.r.seed<<16 + d.loops))}
		if tr != nil {
			c.tr = newTracer(tr.t0, tr.ops)
		}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				c.chk.record(c.session())
			}
		}()
	}
	wg.Wait()
	for _, c := range cs {
		d.r.chk.merge(&c.chk)
	}
	return cs
}

// sessionInfo is the part of the daemon's session document the client reads.
type sessionInfo struct {
	ID             string `json:"id"`
	State          string `json:"state"`
	ContainerBytes int    `json:"container_bytes"`
	Error          string `json:"error"`
}

// session runs one whole session — create, ingest in chunks, close,
// ranged reads, delete — as span "session", then checks what it read.
// Reads start only after close has returned: close is the commit barrier,
// and a read of a live session races the daemon's ingest queue.
func (c *daemonClient) session() error {
	t := &c.d.trajs[c.rng.Intn(len(c.d.trajs))]
	sampled := c.tr != nil || c.rng.Intn(daemonSample) == 0
	los := make([]int, daemonReads)
	for i := range los {
		los[i] = c.rng.Intn(len(t.frames) - daemonReadCount + 1)
	}
	reads := make([][]byte, daemonReads)
	var stream []byte
	var info sessionInfo

	t0 := time.Now()
	root := c.tr.begin("session")
	body, err := c.call("daemon.create", http.MethodPost, "/v1/sessions",
		[]byte(fmt.Sprintf(`{"error_bound":%g,"seek_index":true}`, errorBound)), http.StatusCreated)
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	id := "/v1/sessions/" + info.ID
	for i := 0; err == nil && i < len(t.bodies); i++ {
		_, err = c.call("daemon.ingest", http.MethodPost, id+"/frames", t.bodies[i], http.StatusAccepted)
	}
	if err == nil {
		body, err = c.call("daemon.close", http.MethodPost, id+"/close", nil, http.StatusOK)
		if err == nil {
			err = json.Unmarshal(body, &info)
		}
	}
	ingest := time.Since(t0)
	for i := 0; err == nil && i < daemonReads; i++ {
		t1 := time.Now()
		reads[i], err = c.call("daemon.read", http.MethodGet,
			fmt.Sprintf("%s/frames?from=%d&count=%d", id, los[i], daemonReadCount), nil, http.StatusOK)
		c.readMs = append(c.readMs, float64(time.Since(t1))/1e6)
	}
	var fetch time.Duration
	if err == nil && sampled {
		t1 := time.Now()
		stream, err = c.call("daemon.stream", http.MethodGet, id+"/stream", nil, http.StatusOK)
		fetch = time.Since(t1)
	}
	if info.ID != "" {
		if _, derr := c.call("daemon.delete", http.MethodDelete, id, nil, http.StatusNoContent); err == nil {
			err = derr
		}
	}
	c.tr.end(root)
	if err != nil {
		return err
	}
	c.sessionMs = append(c.sessionMs, float64(time.Since(t0)-fetch)/1e6)
	c.ingestMBps = append(c.ingestMBps, t.raw/1e6/ingest.Seconds())
	c.rawIngest += t.raw
	c.container += float64(info.ContainerBytes)

	if info.State != "closed" || info.Error != "" {
		return fmt.Errorf("session %s closed as %q: %s", info.ID, info.State, info.Error)
	}
	if sampled && !bytes.Equal(stream, t.container) {
		return fmt.Errorf("session %s: container differs from the local Writer's (%d vs %d bytes)", info.ID, len(stream), len(t.container))
	}
	for i, lo := range los {
		got, err := parseWire(reads[i])
		if err == nil {
			err = sameFrames(got, t.decoded[lo:lo+daemonReadCount])
		}
		if err == nil {
			err = c.chk.within(got, t.frames[lo:lo+daemonReadCount], t.b)
		}
		if err != nil {
			return fmt.Errorf("session %s read from %d: %w", info.ID, lo, err)
		}
	}
	if c.tr != nil {
		return c.localReads(stream, los)
	}
	return nil
}

// localReads times ReadRange on the container the daemon served, for the
// same windows the session read over HTTP.
func (c *daemonClient) localReads(stream []byte, los []int) error {
	reads := c.readMs[len(c.readMs)-len(los):]
	for i, lo := range los {
		t0 := time.Now()
		_, err := mdz.NewReader(bytes.NewReader(stream)).ReadRange(lo, lo+daemonReadCount)
		if err != nil {
			return err
		}
		c.overheadMs = append(c.overheadMs, reads[i]-float64(time.Since(t0))/1e6)
	}
	return nil
}

// call makes one HTTP request as a span named name and returns the body,
// failing unless the status is want.
func (c *daemonClient) call(name, method, path string, body []byte, want int) ([]byte, error) {
	id := c.tr.begin(name)
	defer c.tr.end(id)
	req, err := http.NewRequest(method, c.d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, out)
	}
	return out, nil
}

// wireBody encodes frames in the daemon's record format: a little-endian
// uint32 atom count, then the X, Y and Z float64 values.
func wireBody(frames []mdz.Frame) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint32(out, uint32(f.N()))
		for a := 0; a < 3; a++ {
			for _, v := range axis(f, a) {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// parseWire decodes a body of wire-format records.
func parseWire(b []byte) ([]mdz.Frame, error) {
	var out []mdz.Frame
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, errors.New("wire record cut inside the atom count")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < 24*n {
			return nil, errors.New("wire record cut inside its values, " + strconv.Itoa(len(b)) + " bytes left")
		}
		var axes [3][]float64
		for a := range axes {
			axes[a] = make([]float64, n)
			for i := range axes[a] {
				axes[a][i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
			b = b[8*n:]
		}
		out = append(out, mdz.Frame{X: axes[0], Y: axes[1], Z: axes[2]})
	}
	return out, nil
}
