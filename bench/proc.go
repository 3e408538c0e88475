package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// envInfo records where and how a run was made.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	WarmupSec  float64 `json:"warmup_seconds"`
}

func currentEnv(o options) envInfo {
	return envInfo{
		Commit:     commitID(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    liveClients(),
		Seconds:    o.seconds.Seconds(),
		WarmupSec:  o.warmup.Seconds(),
	}
}

// commitID reads the checked-out commit from .git without running git
// (the driver's checkout is not a repository: there it is "unknown").
func commitID() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	head = bytes.TrimSpace(head)
	if ref, ok := bytes.CutPrefix(head, []byte("ref: ")); ok {
		b, err := os.ReadFile(".git/" + string(ref))
		if err != nil {
			return "unknown"
		}
		head = bytes.TrimSpace(b)
	}
	return string(head)
}

// liveClients is C, the number of closed-loop client goroutines: half the
// cores, at most 4. Clients and daemons share this process, and while a
// client computes or its daemon answers one of the two is running, so C
// clients keep up to 2C goroutines busy: at C = nproc both cores of a
// two-core sandbox are saturated, any other activity on the host takes time
// from the measurement, and two clients settle per run into one of two
// scheduling patterns whose median latencies differ by a quarter.
func liveClients() int { return max(1, min(runtime.NumCPU()/2, 4)) }

// procSnap is the process's cumulative cost at one instant.
type procSnap struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// snapProc reads the allocator counters. ReadMemStats stops the
// world, so callers snapshot only at window boundaries.
func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		at:      time.Now(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// sliceLen is how often the measured window is sampled.
const sliceLen = 500 * time.Millisecond

// quietShare picks what a run reports from its slices. Whatever else the
// host is doing only ever slows a slice down, in spells of seconds to
// minutes, so the program's own speed is the envelope of the fast slices: a
// run reports the value that its quietest tenth of slices reaches (the 90th
// percentile of throughput, the 10th of a time), which a spell must cover
// nine tenths of the window to move. The median gives way at half.
const quietShare = 0.10

// quietLow is the quiet-slice value of a cost (a time per op): lower is
// quieter. quietHigh is that of a rate.
func quietLow(v []float64) float64  { return quantile(v, quietShare) }
func quietHigh(v []float64) float64 { return quantile(v, 1-quietShare) }

// slice is one sampling interval of the measured window.
type slice struct {
	secs float64
	ops  int64
	cpu  time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleSlices sleeps until end, reading the op count and the process's
// CPU time every sliceLen.
func sampleSlices(end time.Time, opsDone func() int64) []slice {
	out := make([]slice, 0, int(time.Until(end)/sliceLen)+1)
	at, ops, cpu := time.Now(), opsDone(), cpuTime()
	for at.Before(end) {
		time.Sleep(min(sliceLen, time.Until(end)))
		now, nowOps, nowCPU := time.Now(), opsDone(), cpuTime()
		out = append(out, slice{now.Sub(at).Seconds(), nowOps - ops, nowCPU - cpu})
		at, ops, cpu = now, nowOps, nowCPU
	}
	return out
}

// setSlices writes the quiet-slice throughput and CPU per op, and keeps
// every slice's values in the result file.
func (r *result) setSlices(slices []slice) {
	var perS, cpuPerOp []float64
	for _, s := range slices {
		if s.ops > 0 && s.secs > 0 {
			perS = append(perS, float64(s.ops)/s.secs)
			cpuPerOp = append(cpuPerOp, float64(s.cpu.Nanoseconds())/1e3/float64(s.ops))
		}
	}
	r.SliceOpsPerS, r.SliceCPUUs = perS, cpuPerOp
	r.set("ops_per_s", quietHigh(perS))
	r.set("cpu_us_per_op", quietLow(cpuPerOp))
}

// setProc writes the window's allocation cost per op into the result.
func (r *result) setProc(from, to procSnap, ops int64) {
	n := float64(max(ops, 1))
	r.set("proc.allocs_per_op", float64(to.mallocs-from.mallocs)/n)
	r.set("proc.bytes_per_op", float64(to.bytes-from.bytes)/n)
	r.set("proc.gc_pause_ms", float64(to.gcPause-from.gcPause)/1e6)
}

// setProcEnd writes the exit-time gauges: call after every daemon, pool
// and client is closed.
func (r *result) setProcEnd() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("proc.heap_end_mb", float64(ms.HeapAlloc)/(1<<20))
	r.set("proc.goroutines_end", float64(runtime.NumGoroutine()))
	r.set("peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}
