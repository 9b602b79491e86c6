// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time and prints, as the last line of standard output, one JSON
// object with the run's correctness, operation counts and metrics: the
// end-to-end metrics untraced (-trace 0) or the per-layer metrics from a
// traced run (-trace 1). README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload archive-solid --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed a performance claim must also hold on, in
// addition to the seeds it was developed against.
const heldOutSeed = 97

// errorBound is the value-range-relative bound every workload compresses at.
const errorBound = 1e-4

// sizes fixes the input dimensions of every workload. The smoke test runs
// the same code at tinySizes.
type sizes struct {
	solidCells  int // FCC unit cells per box edge; 4·cells³ atoms
	solidSnaps  int
	liquidAtoms int
	liquidSnaps int
	daemonAtoms int
	daemonSnaps int
	daemonPool  int // distinct trajectories the daemon clients cycle through
	setups      int // set-up repetitions behind setup_s
}

var fullSizes = sizes{
	solidCells:  23, // 48668 atoms: two automatic shards
	solidSnaps:  100,
	liquidAtoms: 1000,
	liquidSnaps: 2000,
	daemonAtoms: 2000,
	daemonSnaps: 40,
	daemonPool:  16,
	setups:      5,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its options, the correctness tally and what it
// reports.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes

	chk     checker
	metrics map[string]metric
	lines   []string
	stamp   map[string]any
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// cpuTime is the CPU time the process has used so far, every thread and
// the garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setCPU reports the CPU time of a measured window per value it processed.
// Unlike wall time it does not stretch when the host steals CPU from a
// virtual machine, so it is the steadier of the two on a shared host.
func (r *run) setCPU(cpu time.Duration, values float64) {
	r.set("cpu_ns_per_value", "ns/value", float64(cpu)/values)
}

// window is the measured duration of one closed-loop phase.
func (r *run) window() time.Duration {
	return time.Duration(r.seconds * float64(time.Second))
}

// timeSetups runs setup sz.setups times and reports the median as
// setup_s, so a later change that moves work into set-up shows.
func (r *run) timeSetups(setup func() error) error {
	var s samples
	for i := 0; i < r.sz.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	r.note("setup_s: %s", s.timing())
	if !r.traced {
		r.set("setup_s", "s", s.median())
	}
	return nil
}

var workloads = map[string]func(*run) error{
	"archive-solid":   runArchive,
	"random-read":     runRandomRead,
	"daemon-sessions": runDaemon,
}

func main() {
	r := &run{sz: fullSizes}
	flag.StringVar(&r.workload, "workload", "", "workload: archive-solid, random-read or daemon-sessions")
	flag.Int64Var(&r.seed, "seed", 1, fmt.Sprintf("input seed (claims must also hold on the held-out seed %d)", heldOutSeed))
	flag.Float64Var(&r.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	r.traced = *trace == 1
	res, err := r.execute()
	for _, l := range r.lines {
		fmt.Println("#", l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stamp, _ := json.Marshal(map[string]any{"stamp": r.stamp})
	fmt.Println(string(stamp))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs the workload and assembles its result.
func (r *run) execute() (*result, error) {
	f, ok := workloads[r.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.workload)
	}
	if !(r.seconds > 0) {
		return nil, fmt.Errorf("seconds must be positive, got %v", r.seconds)
	}
	r.metrics = map[string]metric{}
	r.stamp = environment()
	r.stamp["workload"] = r.workload
	r.stamp["seed"] = r.seed
	r.stamp["held_out_seed"] = heldOutSeed
	r.stamp["trace"] = r.traced
	if err := f(r); err != nil {
		return nil, err
	}
	if !r.traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.set("heap_sys_mb", "MB", float64(ms.HeapSys)/1e6)
	}
	errRate := 0.0
	if r.chk.attempted > 0 {
		errRate = float64(r.chk.failed) / float64(r.chk.attempted)
	}
	r.note("error_rate: %g (%d failed of %d attempted)", errRate, r.chk.failed, r.chk.attempted)
	r.note("max_err_over_eb: %.6f", r.chk.maxErrOverEB)
	if r.chk.firstFailure != "" {
		r.note("first failure: %s", r.chk.firstFailure)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", n)
		}
		r.note("%-44s %14.6g %s", n, m.Value, m.Unit)
	}
	return &result{
		Correct:   r.chk.failed == 0 && r.chk.attempted > 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed,
		Metrics:   r.metrics,
	}, nil
}

// environment stamps the report with what the numbers depend on.
func environment() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_max":    cpuQuota(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
		"l2_bytes":   l2Bytes(),
	}
}

// cpuQuota reads the cgroup CPU quota (v2, then v1).
func cpuQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, qerr := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, perr := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if qerr == nil && perr == nil {
		return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
	}
	return "unknown"
}

// l2Bytes reads the first CPU's level-2 cache size, or 0 when unknown.
func l2Bytes() int64 {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	var n int64
	if _, err := fmt.Sscan(s, &n); err != nil {
		return 0
	}
	return n * mult
}

// gitCommit resolves HEAD from the .git directory of the working
// directory; a checkout without one reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// inputStamp records a workload's input dimensions, including how one
// per-axis batch compares with the level-2 cache.
func (r *run) inputStamp(atoms, snaps, batch int) {
	raw := int64(atoms) * int64(snaps) * 24
	axisBatch := int64(atoms) * int64(batch) * 8
	r.stamp["atoms"] = atoms
	r.stamp["snapshots"] = snaps
	r.stamp["raw_bytes"] = raw
	r.stamp["axis_batch_bytes"] = axisBatch
	if l2, ok := r.stamp["l2_bytes"].(int64); ok && l2 > 0 {
		r.stamp["axis_batch_over_l2"] = float64(axisBatch) / float64(l2)
	}
}
