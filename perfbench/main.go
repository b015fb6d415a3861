// Command perfbench is KAMEL's end-to-end and per-layer benchmark.  One run
// sets up one workload several times (reporting the median set-up time),
// drives it in a closed loop for a fixed time, checks every output, and
// prints one JSON result as its last line:
//
//	perfbench --workload serve-porto --seed 1 --seconds 12 --trace 0 --kamel <kamel binary>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// traced and reports the per-layer metrics instead.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRepeats = 3

// options are the benchmark's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	kamel    string // kamel binary for serve-porto
	state    string // directory for work dirs, server logs and span files
}

// session is one set-up program instance, ready for its measured phase.
type session interface {
	callers() int
	round() int // operations per whole round; a phase ends on a round boundary
	// windows is how many equal time windows the phase's throughput and CPU
	// are reported over (as the median window), or 0 for one window per
	// round of a single caller, so that every window times the same
	// operations.
	windows() int
	op(tr *tracer, caller, i int) opResult
	usage() (cpuSec, peakRSSMB float64) // the program's process
	scrape() (scrape, error)            // the program's metrics exposition
	// finish runs the untimed checks that follow the measured phases and
	// returns recall and precision over the phase outputs.  untimed holds
	// one entry per operation of those checks that counts as attempted,
	// nil when it passed; err is a failed check of the program's state.
	finish(tr *tracer) (recall, precision float64, untimed []error, err error)
	layerInfo() layerInfo
	close()
}

// opResult is one operation of a measured phase.
type opResult struct {
	lat   time.Duration // the call into the program alone, without checks
	trajs int
	err   error // the call failed or an output check was violated
}

// workloads maps each workload to its set-up; BENCHMARK.json says why each
// exists.
var workloads = map[string]func(o options) (session, error){
	"serve-porto":   setupServe,
	"batch-jakarta": setupBatch,
	"ingest-porto":  setupIngest,
}

// singleCore lists the in-process workloads, which run on one core
// (GOMAXPROCS=1, set before the program's packages initialise, so the
// tensor worker pool is sized to it too).  On a shared host with two vCPUs
// the engine's parallel kernels meet at a barrier after every row split, so
// time the hypervisor steals from either vCPU stalls both: in side-by-side
// runs of batch-jakarta, two cores gave 3.97-5.49 trajectories per second as
// host steal went from 10% to 25%, one core 5.13-5.59; at low steal two
// cores were 3-15% faster.  Parallel speed-ups show on serve-porto, whose
// server keeps its default.
var singleCore = map[string]bool{"batch-jakarta": true, "ingest-porto": true}

// execSingleCore replaces this process with itself under GOMAXPROCS=1.
func execSingleCore() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := []string{"GOMAXPROCS=1"}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return syscall.Exec(exe, os.Args, env)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "serve-porto | batch-jakarta | ingest-porto")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the simulated trips")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.kamel, "kamel", "", "kamel binary (serve-porto)")
	fs.StringVar(&o.state, "state", ".bench_build", "directory for work dirs, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	setup, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		return 2
	}
	if singleCore[o.workload] && os.Getenv("GOMAXPROCS") != "1" {
		err := execSingleCore()
		fmt.Fprintln(stderr, "perfbench: re-exec with GOMAXPROCS=1:", err)
		return 1
	}
	res, err := runWorkload(setup, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload sets the workload up setupRepeats times, measures the last
// set-up, and assembles the result.
func runWorkload(setup func(options) (session, error), o options, report io.Writer) (*result, error) {
	fmt.Fprintf(report, "# workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(report, "# machine: %s\n", machine())
	var setups []float64
	var s session
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	fmt.Fprintf(report, "# set-up seconds: %.3f\n", setups)

	dur := time.Duration(o.seconds * float64(time.Second))
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var tr *tracer
	var phases []*phase
	var before scrape
	if o.trace {
		// The untraced phase is the baseline of trace.overhead_pct; the
		// per-layer metrics cover the traced phase alone.
		phases = append(phases, closedLoop(s, dur, nil))
		var err error
		if before, err = s.scrape(); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	ph := closedLoop(s, dur, tr)
	phases = append(phases, ph)
	var after scrape
	if o.trace {
		var err error
		if after, err = s.scrape(); err != nil {
			return nil, err
		}
	}
	recall, precision, untimed, err := s.finish(tr)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(report, "# check failed: %v\n", err)
	}
	var final scrape
	if o.trace {
		if final, err = s.scrape(); err != nil {
			return nil, err
		}
	}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
		for _, e := range p.errs {
			fmt.Fprintf(report, "# failed operation: %v\n", e)
		}
	}
	res.Attempted += len(untimed)
	for _, f := range untimed {
		if f != nil {
			res.Failed++
			fmt.Fprintf(report, "# failed operation: %v\n", f)
		}
	}
	if ph.trajs == 0 || recall <= 0 || precision <= 0 {
		res.Correct = false
	}
	fmt.Fprintf(report, "# operations attempted %d failed %d\n", res.Attempted, res.Failed)

	if o.trace {
		layerMetrics(res.Metrics, s, tr, before, after, final, phases[0], ph)
		if err := tr.write(filepath.Join(o.state, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
			return nil, err
		}
		return res, nil
	}
	lat := append([]float64(nil), ph.lat...)
	sort.Float64s(lat)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	// The median window shrugs off a burst of load from elsewhere on the
	// host that a whole-phase mean would absorb.
	put("traj_per_s", "1/s", median(ph.winTPS))
	put("p50_ms", "ms", quantile(lat, 0.5))
	put("p90_ms", "ms", quantile(lat, 0.9))
	put("cpu_ms_per_traj", "ms", median(ph.winCPU))
	put("peak_rss_mb", "MiB", ph.peakRSS)
	put("recall", "ratio", recall)
	put("precision", "ratio", precision)
	fmt.Fprintf(report, "# measured %d operations, %d trajectories in %.2fs; host CPU steal %.1f%%\n",
		ph.ops, ph.trajs, ph.wall.Seconds(), ph.stealPct)
	return res, nil
}

// phase is what one measured phase observed.
type phase struct {
	ops, failed, trajs int
	errs               []error   // the first few failures, for the report
	lat                []float64 // ms per operation
	wall               time.Duration
	cpu, selfCPU       float64 // program and benchmark CPU seconds
	peakRSS            float64 // MiB, at the end of the phase
	allocBytes         float64 // this process's heap allocation
	gcCycles           float64 // this process's completed GC cycles
	// Per-window trajectories per second and program CPU ms per trajectory
	// (see session.windows).
	winTPS, winCPU []float64
	stealPct       float64 // host CPU steal over the phase
}

// closedLoop drives the session's callers, each sending its next operation
// as soon as the previous one returns, until dur has passed and the current
// round of operations is complete.
func closedLoop(s session, dur time.Duration, tr *tracer) *phase {
	ph := &phase{}
	var mu sync.Mutex
	next, stop := 0, false
	cpu0, _ := s.usage()
	self0 := selfCPU()
	alloc0, gc0 := runtimeCounters()
	steal0, ticks0 := hostSteal()
	start := time.Now()
	// Windows: [0, dur) is cut at n equal boundaries, and each window runs
	// from the first completion after one boundary to the first completion
	// after the next, so it holds whole operations and its rate is not
	// rounded to the operations that happen to fit in a fixed interval.
	n := s.windows()
	type mark struct {
		at    time.Time
		trajs int
		cpu   float64
	}
	var marks []mark
	if n == 0 {
		marks = append(marks, mark{start, 0, cpu0})
	}
	boundary := 0 // next boundary, in units of dur/n
	// The operations of a single-core workload take turns on each CPU the
	// process may use.  On a shared host the speed a single thread gets can
	// drift by a fifth for seconds at a time, and a thread the kernel leaves
	// on one vCPU for a whole run carries that vCPU's drift into the run's
	// figures: unpinned, ten-run spreads of batch-jakarta's traj_per_s were
	// 0.17 to 0.21 of the median; taking turns, 0.07 to 0.11.
	var rotate []int
	if runtime.GOMAXPROCS(0) == 1 {
		rotate = allowedCPUs()
	}
	var wg sync.WaitGroup
	for c := 0; c < s.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if stop || (next%s.round() == 0 && time.Since(start) >= dur) {
					stop = true
					mu.Unlock()
					return
				}
				i := next
				next++
				if len(rotate) > 1 && pinProcess(rotate[i%len(rotate)]) != nil {
					rotate = nil // left to the kernel's placement
				}
				mu.Unlock()
				r := s.op(tr, c, i)
				mu.Lock()
				ph.ops++
				ph.lat = append(ph.lat, float64(r.lat.Nanoseconds())/1e6)
				if r.err != nil {
					ph.failed++
					if len(ph.errs) < 5 {
						ph.errs = append(ph.errs, r.err)
					}
				} else {
					ph.trajs += r.trajs
				}
				if n == 0 && ph.ops%s.round() == 0 {
					cpu, _ := s.usage()
					marks = append(marks, mark{time.Now(), ph.trajs, cpu})
				} else if elapsed := time.Since(start); n > 0 && boundary <= n && elapsed >= dur*time.Duration(boundary)/time.Duration(n) {
					cpu, _ := s.usage()
					marks = append(marks, mark{time.Now(), ph.trajs, cpu})
					for boundary <= n && elapsed >= dur*time.Duration(boundary)/time.Duration(n) {
						boundary++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for i := 1; i < len(marks); i++ {
		if d := marks[i].trajs - marks[i-1].trajs; d > 0 {
			ph.winTPS = append(ph.winTPS, float64(d)/marks[i].at.Sub(marks[i-1].at).Seconds())
			ph.winCPU = append(ph.winCPU, (marks[i].cpu-marks[i-1].cpu)*1e3/float64(d))
		}
	}
	cpu1, rss := s.usage()
	ph.cpu, ph.peakRSS = cpu1-cpu0, rss
	ph.selfCPU = selfCPU() - self0
	alloc1, gc1 := runtimeCounters()
	ph.allocBytes, ph.gcCycles = alloc1-alloc0, gc1-gc0
	if steal1, ticks1 := hostSteal(); ticks1 > ticks0 {
		ph.stealPct = 100 * (steal1 - steal0) / (ticks1 - ticks0)
	}
	return ph
}

// hostSteal reads the host-wide steal and total CPU ticks from /proc/stat:
// time a hypervisor gave this machine's CPUs to someone else, which slows
// every wall-clock metric without showing in any process's CPU time.
func hostSteal() (steal, total float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU is this process's user plus system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// selfPeakRSSMB is this process's peak resident set (maxrss is in KiB).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// machine describes the host and build the numbers were taken on.
func machine() string {
	cpu := "unknown"
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s GOMAXPROCS=%d commit=%s",
		runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0), commit)
}
