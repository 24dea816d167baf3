package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostState is what a run measures of its host apart from the workload, so
// a comparison can tell a change in the program from a change in the
// machine under it. On a shared VM the same code's epoch times drift with
// the neighbours' load; the drift shows in these numbers too.
type hostState struct {
	// StealShare is the share of the host's CPU time the hypervisor gave to
	// other guests during the run (from /proc/stat), -1 when unknown.
	StealShare float64 `json:"steal_share"`
	// CacheProbeMS is the median time of a fixed single-threaded kernel of
	// random read-modify-writes over 4 MiB, larger than a core's private
	// caches, so it slows when other guests load the shared cache and
	// memory. It is timed before, between the sessions of, and after the
	// measurement.
	CacheProbeMS float64 `json:"cache_probe_ms"`
	// RTTP50US is the median ping-pong round trip over the workload's
	// transport on an idle cluster, after the measurement.
	RTTP50US float64 `json:"rtt_p50_us"`
}

// Thresholds beyond which --compare flags two reports' hosts as different.
const (
	hostStealDiff = 0.01 // absolute difference of steal shares
	hostProbeDiff = 0.15 // relative difference of cache probe times
	hostRTTDiff   = 0.50 // relative difference of ping-pong medians
)

// differs describes how far b's host is from a's beyond the thresholds,
// or returns "" when they agree.
func (a hostState) differs(b hostState) string {
	var out []string
	if a.StealShare >= 0 && b.StealShare >= 0 && math.Abs(a.StealShare-b.StealShare) > hostStealDiff {
		out = append(out, fmt.Sprintf("steal share %.3f vs %.3f", a.StealShare, b.StealShare))
	}
	rel := func(x, y float64) float64 { return math.Abs(y-x) / math.Min(x, y) }
	if a.CacheProbeMS > 0 && b.CacheProbeMS > 0 && rel(a.CacheProbeMS, b.CacheProbeMS) > hostProbeDiff {
		out = append(out, fmt.Sprintf("cache probe %.2f vs %.2f ms", a.CacheProbeMS, b.CacheProbeMS))
	}
	if a.RTTP50US > 0 && b.RTTP50US > 0 && rel(a.RTTP50US, b.RTTP50US) > hostRTTDiff {
		out = append(out, fmt.Sprintf("ping-pong p50 %.1f vs %.1f us", a.RTTP50US, b.RTTP50US))
	}
	if len(out) == 0 {
		return ""
	}
	return fmt.Sprint(out)
}

// probeSink keeps the probe kernel's result alive.
var probeSink float32

// cacheProbe times the fixed probe kernel five times and returns the
// median in ms. Its buffer is mapped outside the Go heap and unmapped
// afterwards, so the probe neither raises the collector's heap goal nor
// stays resident: it must not move the peak_rss_mb it runs beside.
func cacheProbe() float64 {
	const size = 1 << 20 // float32s: 4 MiB, twice a core's L2 cache
	mem, err := syscall.Mmap(-1, 0, size*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0
	}
	defer syscall.Munmap(mem)
	buf := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), size)
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		x := uint32(2463534242)
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			buf[x&(size-1)] += 1
		}
		times[r] = float64(time.Since(start)) / 1e6
		probeSink += buf[x&(size-1)]
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// probe times the cache probe between two parts of a measurement.
func (o *outcome) probe() { o.addProbe(cacheProbe()) }

// addProbe records one probe time; a probe that could not run reads 0 and
// is left out.
func (o *outcome) addProbe(ms float64) {
	if ms > 0 {
		o.probes = append(o.probes, ms)
	}
}

// measureHost runs measure between two host readings and returns what it
// returned together with the host's state over it.
func measureHost(outDir string, measure func() (*outcome, error)) (*outcome, hostState, error) {
	before := cacheProbe()
	from := hostEdge()
	out, err := measure()
	if err != nil {
		return nil, hostState{}, err
	}
	to := hostEdge()
	out.probe()
	out.addProbe(before)
	h := hostState{StealShare: stealShare(from, to), CacheProbeMS: median(out.probes)}
	d := newDeployment(out.rec.Transport == "shm", filepath.Join(outDir, "shm"))
	if h.RTTP50US, _, err = pingPong(d, 2000); err != nil {
		return nil, hostState{}, err
	}
	return out, h, nil
}

// hostEdge reads the host's CPU tick counters into an edge.
func hostEdge() edge {
	var e edge
	if st, tot, ok := hostCPU(); ok {
		e.stealTick, e.hostTick = st, tot
	} else {
		e.stealTick = -1
	}
	return e
}

// stealShare returns the share of the host's CPU time the hypervisor stole
// between two edges, or -1 when it is unknown.
func stealShare(from, to edge) float64 {
	if from.stealTick < 0 || to.stealTick < 0 || to.hostTick <= from.hostTick {
		return -1
	}
	return float64(to.stealTick-from.stealTick) / float64(to.hostTick-from.hostTick)
}

// hostCPU returns the host's CPU time stolen by the hypervisor and its
// total CPU time so far, in clock ticks, from the kernel's /proc/stat; ok
// is false where that cannot be read.
func hostCPU() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
