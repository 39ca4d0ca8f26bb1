// Command perfbench is the repository benchmark: it drives the deployed
// remote-memory configuration under TPC-C (write-heavy and read-mostly)
// and TPC-H traffic, checks the answers, and prints one JSON line of
// metrics. Latencies are simulated time, so they repeat exactly for a
// seed; wall-clock set-up, CPU and memory are reported separately.
//
//	bash perfbench/run.sh --workload oltp-write --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"remotedb"
	"remotedb/internal/sim"
	"remotedb/internal/workload/tpcc"
)

// app is one workload's traffic over a loaded stack.
type app interface {
	clients() int
	// client runs closed-loop client c, issuing each op through do,
	// until do returns false or the client's work is done.
	client(p *remotedb.Proc, c int, rng *rand.Rand, do doFunc)
	// check verifies the database after the run and describes each
	// wrong answer.
	check(p *remotedb.Proc) ([]string, error)
}

// doFunc runs one op named name (a write op when write is set), records
// it, and reports whether the client should go on.
type doFunc func(name string, write bool, fn func() error) bool

// workload is one traffic mix with its sizing. The deployment switches
// are the same for all of them (see startStack).
type workload struct {
	name string
	sz   sizing
	// tailPct is the percentile reported as *_tail_ms: the highest with
	// at least ten samples beyond it at --seconds 20.
	tailPct float64
	// simPerSec converts --seconds into the simulated measurement
	// window (OLTP) so that a run's wall time tracks --seconds while its
	// simulated metrics stay a function of the seed alone.
	simPerSec time.Duration
	warm      time.Duration // simulated warm-up before the window
	load      func(p *remotedb.Proc, st *stack) (app, error)
	// rounds sizes a count-bounded workload (OLAP) from --seconds.
	rounds func(seconds int) int
	// ref computes the reference answers an OLAP run is checked against.
	ref func() (map[int]int64, error)
}

const (
	tpchSF      = 0.01
	tpchStreams = 4
)

func workloads() map[string]*workload {
	// oltp-write holds the same 40 districts of order history as four
	// warehouses of ten would, split into twenty warehouses of two: the
	// driver's locks (oltp.go) are per warehouse, coarser than a DBMS's
	// row locks, and with fewer lock domains the queue for them sets
	// the tail (see NOTES.md). Items shrink with the warehouse size so
	// that the stock table stays at 40,000 rows.
	write := tpcc.DefaultConfig()
	write.Warehouses, write.DistrictsPer, write.Items, write.Clients = 20, 2, 2000, 24
	read := tpcc.DefaultConfig()
	read.Warehouses, read.Clients = 4, 50
	read.ReadMostly = true
	read.HistoryWindow = 400
	oltpWrite := func(locked bool) *workload {
		return &workload{
			sz:        sizing{localBytes: 8 << 20, bpextBytes: 16 << 20, tempBytes: 8 << 20},
			tailPct:   99,
			simPerSec: 2 * time.Second,
			warm:      300 * time.Millisecond,
			load:      loadOLTP(write, false, locked),
		}
	}
	w := map[string]*workload{
		"oltp-write": oltpWrite(true),
		// oltp-write-nolock is oltp-write without the driver's locks. It
		// is not listed in BENCHMARK.json: the engine has no concurrency
		// control, so its answers are wrong (see NOTES.md, "Defects").
		"oltp-write-nolock": oltpWrite(false),
		// oltp-read is runnable but not listed in BENCHMARK.json: its
		// results are not steady across seeds (see NOTES.md).
		"oltp-read": {
			sz:        sizing{localBytes: 8 << 20, bpextBytes: 48 << 20, tempBytes: 8 << 20},
			tailPct:   99,
			simPerSec: 40 * time.Millisecond,
			warm:      100 * time.Millisecond,
			load:      loadOLTP(read, true, true),
		},
		"olap": {
			sz:      sizing{localBytes: 8 << 20, bpextBytes: 32 << 20, tempBytes: 64 << 20, segBytes: segBytes(tpchSF), grant: 512 << 10},
			tailPct: 94,
			load:    loadOLAP(tpchSF, tpchStreams),
			rounds:  func(seconds int) int { return max(1, seconds/10) },
			ref:     func() (map[int]int64, error) { return tpchReference(tpchSF) },
		},
	}
	for name, wl := range w {
		wl.name = name
	}
	return w
}

// A run builds the stack at least minSetups and at most maxSetups
// times; setup_s and setup_sim_s are the medians over these. It adds
// set-ups beyond minSetups while the extra ones have taken less than
// setupWall in total, so that a set-up of half a second (olap), which
// host noise moves most, is timed over more samples than one of four
// seconds (oltp-write). The extra set-ups use seeds childSeedStride
// apart, so the simulated median is over independent samples too (disk
// seek times come from the kernel RNG).
const (
	minSetups       = 3
	maxSetups       = 9
	setupWall       = 4.0 // seconds
	childSeedStride = 1_000_003
)

func main() {
	name := flag.String("workload", "", "workload: oltp-write, olap, oltp-read or oltp-write-nolock")
	seed := flag.Int64("seed", 1, "seed for the generated inputs and the simulation")
	seconds := flag.Int("seconds", 20, "run length: sets the simulated window (OLTP) or query rounds (OLAP)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "set up once and print its wall and simulated seconds")
	flag.Parse()
	wl, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *setupOnly {
		_, su, err := runOnce(wl, *seed, *seconds, false, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(su.wall, su.sim)
		return
	}
	res, err := run(wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, w := range res.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: op error:", e)
	}
	var metrics map[string]float64
	var units map[string]string
	if *trace == 1 {
		metrics, units = res.layer, layerUnits(res.layer)
		if err := writeTrace(res.tr, wl.name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	} else {
		metrics, units = res.e2e, e2eUnits
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(res.wrong) == 0, res.attempted, res.failed, map[string]map[string]any{}}
	for k, v := range metrics {
		out.Metrics[k] = map[string]any{"value": v, "unit": units[k]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// traceDir is where a traced run writes its spans, relative to the
// checkout root run.sh starts the program in.
const traceDir = ".bench_build/trace"

func writeTrace(tr *tracer, name string, seed int64) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv", name, seed)))
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	wrong             []string
	errs              []string
	e2e, layer        map[string]float64
	tr                *tracer
	// sim is every simulated metric and counter, for the determinism
	// and trace-equivalence tests.
	sim map[string]float64
}

// setupTime is one set-up's wall and simulated duration in seconds.
type setupTime struct{ wall, sim float64 }

// run measures the set-up metrics as the median of several set-ups:
// the extra ones run first, each in a child process so that its memory
// is returned before the measured one starts; the last is the stack the
// workload runs on.
func run(wl *workload, seed int64, seconds int, traced bool) (*result, error) {
	var walls, sims []float64
	var total float64
	for i := 1; i < maxSetups && (i < minSetups || total < setupWall); i++ {
		su, err := childSetup(wl.name, seed+int64(i)*childSeedStride)
		if err != nil {
			return nil, err
		}
		walls, sims = append(walls, su.wall), append(sims, su.sim)
		total += su.wall
	}
	res, su, err := runOnce(wl, seed, seconds, traced, true)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(append(walls, su.wall))
	res.e2e["rss_peak_mb"] = peakRSSMB()
	res.layer["setup_sim_s"] = median(append(sims, su.sim))
	return res, nil
}

// childSetup runs one set-up in a child process.
func childSetup(name string, seed int64) (setupTime, error) {
	var su setupTime
	exe, err := os.Executable()
	if err != nil {
		return su, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return su, fmt.Errorf("set-up child: %w", err)
	}
	if _, err := fmt.Sscan(string(out), &su.wall, &su.sim); err != nil {
		return su, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return su, nil
}

// runOnce sets the stack up in a fresh kernel and returns the set-up's
// wall time; when measure is set it then runs and checks the workload.
func runOnce(wl *workload, seed int64, seconds int, traced, measure bool) (*result, setupTime, error) {
	var ref map[int]int64
	if measure && wl.ref != nil {
		var err error
		if ref, err = wl.ref(); err != nil {
			return nil, setupTime{}, err
		}
	}
	var res *result
	var su setupTime
	var err error
	runtime.GC()
	k := remotedb.NewKernel(seed)
	k.Go("bench", func(p *remotedb.Proc) {
		var tr *tracer
		var wrap func(remotedb.File) remotedb.File
		if traced {
			tr = newTracer()
			wrap = tr.wrap
		}
		t0 := time.Now()
		st, e := startStack(p, wl.sz, wrap)
		if e != nil {
			err = e
			return
		}
		defer st.close(p)
		a, e := wl.load(p, st)
		if e != nil {
			err = e
			return
		}
		su = setupTime{wall: time.Since(t0).Seconds(), sim: p.Now().Seconds()}
		if !measure {
			return
		}
		if o, ok := a.(*olap); ok {
			o.ref = ref
		}
		res, err = drive(p, wl, a, st, seed, seconds, tr)
		if err == nil {
			res.sim["setup_sim_s"] = su.sim
			res.layer["broker.grants"] = float64(st.broker.Grants())
			res.layer["broker.renewals"] = float64(st.broker.Renewals())
		}
	})
	k.Run(0)
	return res, su, err
}

// drive runs the closed-loop clients through the warm-up and the
// measured window and derives the metrics.
func drive(p *remotedb.Proc, wl *workload, a app, st *stack, seed int64, seconds int, tr *tracer) (*result, error) {
	k := p.Kernel()
	start := p.Now() + wl.warm
	end := time.Duration(1<<62 - 1)
	if wl.rounds == nil {
		end = start + time.Duration(seconds)*wl.simPerSec
	} else if o, ok := a.(*olap); ok {
		o.rounds = wl.rounds(seconds)
	}

	var samples []sample
	var errs []string
	var attempted, opErrs int64
	var before map[string]float64
	var cpu0 time.Duration
	var wall0 time.Time
	k.GoAt(start, "snapshot", func(*remotedb.Proc) {
		before = counters(st, a)
		cpu0, wall0 = processCPU(), time.Now()
	})

	done := sim.NewWaitGroup(k)
	lastEnd := start
	for c := 0; c < a.clients(); c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		done.Add(1)
		k.Go(fmt.Sprintf("client%d", c), func(cp *remotedb.Proc) {
			defer done.Done()
			a.client(cp, c, rng, func(name string, write bool, fn func() error) bool {
				t0 := cp.Now()
				if t0 >= end {
					return false
				}
				var id int64
				if tr != nil {
					id = tr.begin(cp)
				}
				err := fn()
				if tr != nil {
					tr.end(cp, id, name, t0)
				}
				if t0 < start {
					return true
				}
				attempted++
				if err != nil {
					opErrs++
					errs = append(errs, fmt.Sprintf("%s: %v", name, err))
				} else {
					samples = append(samples, sample{lat: cp.Now() - t0, write: write})
				}
				lastEnd = max(lastEnd, cp.Now())
				return true
			})
		})
	}
	done.Wait(p)
	after := counters(st, a)
	cpu, wallMeasured := processCPU()-cpu0, time.Since(wall0)
	elapsed := lastEnd - start
	var queries int64 // every OLAP op is a query; OLTP runs none
	if wl.rounds != nil {
		queries = attempted
	}

	wrong, err := a.check(p)
	if err != nil {
		return nil, err
	}
	res := &result{
		attempted: attempted,
		failed:    opErrs + int64(len(wrong)),
		wrong:     wrong,
		errs:      errs,
		tr:        tr,
	}
	all := sortedLat(samples, func(sample) bool { return true })
	reads := sortedLat(samples, func(s sample) bool { return !s.write })
	writes := sortedLat(samples, func(s sample) bool { return s.write })
	if n := beyond(len(all), wl.tailPct); n < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p%g\n", n, wl.tailPct)
	}
	failFrac := ratio(float64(res.failed), float64(attempted))
	res.e2e = map[string]float64{
		"ops_per_s":    ratio(float64(len(samples)), elapsed.Seconds()),
		"op_p50_ms":    ms(percentile(all, 50)),
		"op_tail_ms":   ms(percentile(all, wl.tailPct)),
		"read_p50_ms":  ms(percentile(reads, 50)),
		"read_tail_ms": ms(percentile(reads, wl.tailPct)),
		"ok_frac":      1 - failFrac,
	}
	res.layer = layerMetrics(delta(after, before), attempted, queries, elapsed, st.db.Cores())
	res.layer["fail_frac"] = failFrac
	res.layer["write_p50_ms"] = ms(percentile(writes, 50))
	res.layer["write_tail_ms"] = ms(percentile(writes, wl.tailPct))
	res.layer["sim.wall_s_per_sim_s"] = ratio(wallMeasured.Seconds(), elapsed.Seconds())
	res.layer["sim.cpu_us_per_op"] = ratio(float64(cpu)/1e3, float64(attempted))
	if tr != nil {
		tr.summarize(res.layer, attempted, start, end)
	}

	res.sim = map[string]float64{"attempted": float64(attempted), "failed": float64(res.failed)}
	for k, v := range res.e2e {
		res.sim[k] = v
	}
	for k, v := range delta(after, before) {
		res.sim["counter."+k] = v
	}
	return res, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

var e2eUnits = map[string]string{
	"ops_per_s":    "1/s",
	"op_p50_ms":    "ms",
	"op_tail_ms":   "ms",
	"read_p50_ms":  "ms",
	"read_tail_ms": "ms",
	"ok_frac":      "fraction",
	"setup_s":      "s",
	"rss_peak_mb":  "MiB",
}

// layerUnits gives the unit of each per-layer metric in m.
func layerUnits(m map[string]float64) map[string]string {
	u := make(map[string]string, len(m))
	for k := range m {
		u[k] = layerUnit(k)
	}
	return u
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_ratio", "fraction"}, {"_frac", "fraction"}, {"_util", "fraction"},
		{"_bytes_per_op", "B"}, {"_bytes_per_query", "B"}, {"bytes_per_round_trip", "B"},
		{"_per_s", "1/s"}, {"_ms", "ms"}, {"_ms_per_query", "ms"}, {"_us_per_op", "us"}, {"_us", "us"},
		{"wall_s_per_sim_s", "s/s"}, {"setup_sim_s", "s"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
