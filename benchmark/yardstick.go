package main

import (
	"crypto/sha256"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host, and the host does two
// things to it that the program under test has no part in (measured on the
// reference box over 120 runs, README "Why the time-based metrics are
// compensated"):
//
//   - it takes the cores away, a few milliseconds at a time, for anything
//     from 0 to half of the wall clock, changing from one minute to the
//     next. The kernel reports that time as steal in /proc/stat.
//   - in the same minutes the instructions themselves run slower
//     (presumably cold caches after every preemption and a busy neighbour
//     on the same physical core): the CPU time a thread needs for a fixed
//     computation rises by up to 40%.
//
// Uncompensated, throughput read anywhere between 13,000 and 38,000 tx/s
// for the same code, CPU per submission 55 to 70 us. So every repetition
// measures both effects beside its load - stolen time from /proc/stat, and
// the instruction speed with a yardstick: a fixed SHA-256 computation
// timed in thread CPU time at points spread evenly through the measured
// phase - and the time-based end-to-end metrics are reported as they would
// have read on a host that stole nothing and ran at the yardstick's nominal
// speed. In a quiet hour on the reference box the compensated values are
// within a tenth of the raw ones; the raw ones are always reported beside
// them, per layer (client.*_raw), with client.steal_share and
// client.yardstick_us.

const (
	// yardstickRounds hashes of yardstickBlock are one reading.
	yardstickRounds = 100
	// yardstickNominal is the thread CPU time one reading takes on the
	// reference box (README) when nothing disturbs it. It only fixes the
	// scale: on any one machine a change in the program moves compensated
	// and raw values by the same share.
	yardstickNominal = 4300 * time.Microsecond
	// yardstickReadings is how many readings are spread through a measured
	// phase, the first as it begins: ~1.5% of one core.
	yardstickReadings = 16
)

// yardstickBlock is what a reading hashes; it is only ever read.
var yardstickBlock [64 << 10]byte

// threadCPU is the CPU time the calling thread has used
// (CLOCK_THREAD_CPUTIME_ID); ok is false where the clock is not there.
func threadCPU() (t time.Duration, ok bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}

// yardstick collects readings of the host's instruction speed during one
// repetition.
type yardstick struct {
	every int // a reading as every every-th operation is claimed

	mu       sync.Mutex
	readings []time.Duration
}

// newYardstick spreads yardstickReadings readings over ops operations.
func newYardstick(ops int) *yardstick {
	return &yardstick{every: max(1, (ops+yardstickReadings-1)/yardstickReadings)}
}

// read takes one reading on the calling goroutine: the thread CPU time of
// the fixed computation, which leaves out whatever the hypervisor stole in
// between. The goroutine keeps its core for the ~4 ms this takes; the load
// runs on on the others.
func (y *yardstick) read() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, ok := threadCPU()
	t0 := time.Now()
	for i := 0; i < yardstickRounds; i++ {
		sha256.Sum256(yardstickBlock[:])
	}
	took := time.Since(t0)
	if c1, _ := threadCPU(); ok {
		took = c1 - c0
	}
	y.mu.Lock()
	y.readings = append(y.readings, took)
	y.mu.Unlock()
}

// claimed is called by the load worker that claimed operation op, before it
// sends it: operation numbers come from one counter, so the readings fall
// evenly through the phase whichever worker takes them.
func (y *yardstick) claimed(op int) {
	if op%y.every == 0 {
		y.read()
	}
}

// cpu is the CPU time the readings themselves used, to be taken out of the
// process's.
func (y *yardstick) cpu() time.Duration {
	var sum time.Duration
	for _, r := range y.readings {
		sum += r
	}
	return sum
}

// mean is the mean reading, 0 before the first.
func (y *yardstick) mean() time.Duration {
	if len(y.readings) == 0 {
		return 0
	}
	return y.cpu() / time.Duration(len(y.readings))
}

// hostSteal is the CPU time, summed over the cores, that the hypervisor has
// given to someone else since boot: the steal column of /proc/stat. ok is
// false where there is no such file to read.
func hostSteal() (steal time.Duration, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	return parseSteal(string(b))
}

// parseSteal reads the steal column of /proc/stat's first line.
func parseSteal(stat string) (steal time.Duration, ok bool) {
	const userHZ = 100 // the unit of /proc/stat, fixed by the kernel ABI
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * time.Second / userHZ, true
}

// host is what the shared host did to one measured phase.
type host struct {
	// stealShare is the share of the phase's core time (wall clock x cores)
	// the hypervisor gave to someone else.
	stealShare float64
	// speed is the yardstick's nominal time over its measured mean: 1 on the
	// quiet reference box, below 1 when instructions ran slower.
	speed float64
}

// observedHost works the host's part out of a phase's wall time, the steal
// that accrued over it on cores cores, and the mean yardstick reading. A
// missing measurement compensates nothing.
func observedHost(wall, steal time.Duration, cores int, yardstickMean time.Duration) host {
	h := host{speed: 1}
	if wall > 0 && cores > 0 && steal > 0 {
		// /proc/stat counts in 10 ms ticks and a phase is seconds long; the
		// cap only keeps a nonsense reading from dividing by nothing.
		h.stealShare = min(float64(steal)/(float64(wall)*float64(cores)), 0.9)
	}
	if yardstickMean > 0 {
		h.speed = float64(yardstickNominal) / float64(yardstickMean)
	}
	return h
}

// cost converts a time the program was observed to take (CPU time, a
// latency percentile) to what it takes at nominal instruction speed.
func (h host) cost(t float64) float64 { return t * h.speed }

// rate converts a count completed over wall to a rate per second the host
// let the program run, at nominal instruction speed.
func (h host) rate(count float64, wall time.Duration) float64 {
	granted := wall.Seconds() * (1 - h.stealShare) * h.speed
	if granted <= 0 {
		return 0
	}
	return count / granted
}
