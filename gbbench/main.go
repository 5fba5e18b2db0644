// Command gbbench benchmarks the node cmd/gridbankd runs: it assembles
// the node in-process from the same constructors and flag defaults,
// drives it over loopback TLS from at most two client connections,
// checks the outcome, and prints one JSON result line.
//
//	go build -o .bench_build/gbbench . && .bench_build/gbbench \
//	    --workload interactive --seed 1 --seconds 10 --trace 0
//
// Workloads: interactive (§5.2 broker and consumer calls), settlement
// (usage and micropay pipelines with background transfers) and restart
// (boot of a large data dir). --trace 0 prints the end-to-end metrics
// of an untraced run; --trace 1 prints per-layer metrics from a traced
// run, plus the tracing overhead against an untraced run of the same
// length. A report line before the result records the host (nproc,
// GOMAXPROCS, Go version, a raw fsync probe) and the workload's metrics
// under their own names. Any failed correctness check makes the result
// incorrect and the exit status 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridbank/internal/core"
)

// sizes scales every workload; the benchmark's tests shrink it.
type sizes struct {
	consumers, providers int // interactive and settlement accounts
	setups               int // untraced set-ups per run; setup_s is their median

	rate        float64 // interactive phase-1 open-loop ops/s
	outstanding int     // interactive phase-2 closed-loop ops in flight

	round      int     // settlement: charges (and claims) per round, the queue bound
	usageBatch int     // settlement: charges per Usage.Submit
	chains     int     // settlement: micropay chains
	claimTicks int     // settlement: ticks per micropay claim
	chainLen   int     // settlement: words per chain
	bgRate     float64 // settlement: background DirectTransfers per second

	restartAccounts  int // restart: accounts in the data dir
	restartTransfers int // restart: transfers in the journal tail
	pendingCharges   int // restart: usage charges left pending in the spool
	pendingClaims    int // restart: micropay claims left pending in the spool
	sample           int // restart: accounts whose balances are checked after boot
}

var fullSizes = sizes{
	consumers: 4096, providers: 4096, setups: 3,
	rate: 600, outstanding: 2 * 32,
	round: 4096, usageBatch: 64, chains: 64, claimTicks: 16, chainLen: 1 << 17, bgRate: 200,
	restartAccounts: 20000, restartTransfers: 8000, pendingCharges: 4096, pendingClaims: 1024, sample: 256,
}

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

// endToEnd lists the gated metrics every workload measures; spec.json
// says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "1/s"},
}

func main() {
	workload := flag.String("workload", "", "interactive, settlement or restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "parent of the run's scratch data directories")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "gbbench: unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "gbbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbbench:", err)
		os.Exit(1)
	}
	out, err := bench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir, fullSizes)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbbench:", err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "gbbench: check failed:", f)
	}
	report, _ := json.Marshal(map[string]any{"report": out.report})
	fmt.Println(string(report))
	metrics := make(map[string]any, len(out.metrics))
	for _, m := range out.metrics {
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": len(out.failures) == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	if len(out.failures) > 0 {
		os.Exit(1)
	}
}

// workload is one benchmark scenario. setup is what setup_s times;
// measure runs the timed phase; check verifies outcomes afterwards.
type workload interface {
	setup() error
	measure(d time.Duration) error
	check()
	result() *pass
	close()
}

var workloads = map[string]func(seed int64, sz sizes, dir string, tr *tracer, boot bootOptions) workload{
	"interactive": newInteractive,
	"settlement":  newSettlement,
	"restart":     newRestart,
}

// pass is what one measured run of a workload produced.
type pass struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64 // endToEnd metrics except setup_s
	named             map[string]any     // the workload's metrics under their own names
	layers            map[string]float64 // per-layer metrics (traced runs)
	exact             map[string]float64 // counts that repeat exactly for a seed
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, named: map[string]any{}, layers: map[string]float64{}, exact: map[string]float64{}}
}

// failf records a failed correctness check.
func (p *pass) failf(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

type metricVal struct {
	name, unit string
	value      float64
}

type outcome struct {
	attempted, failed int
	failures          []string
	metrics           []metricVal
	report            map[string]any
	exact             map[string]float64
}

// runOnce sets a workload up (timed), measures it and checks it.
func runOnce(name string, seed int64, sz sizes, dir string, tr *tracer, boot bootOptions, d time.Duration) (*pass, float64, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	w := workloads[name](seed, sz, dir, tr, boot)
	defer w.close()
	start := time.Now()
	if err := w.setup(); err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	setup := time.Since(start).Seconds()
	if err := w.measure(d); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	w.check()
	return w.result(), setup, nil
}

// setUpOnly times one set-up and tears it down again.
func setUpOnly(name string, seed int64, sz sizes, dir string, boot bootOptions) (float64, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w := workloads[name](seed, sz, dir, nil, boot)
	defer w.close()
	start := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	return time.Since(start).Seconds(), nil
}

// bench runs one benchmark invocation. Untraced, it sets the workload up
// sz.setups times (setup_s is the median) and measures the last set-up.
// Traced, it measures an untraced and a traced run of half the length
// each, both on the same node boot (nodeUnderTest), and reports the
// traced run's per-layer metrics with the gap between the two as
// trace.overhead_pct.
func bench(name string, seed int64, d time.Duration, traced bool, dir string, sz sizes) (*outcome, error) {
	out := &outcome{report: map[string]any{"workload": name, "seed": seed, "seconds": d.Seconds(), "trace": traced}}
	host, err := hostInfo(dir)
	if err != nil {
		return nil, err
	}
	out.report["host"] = host
	boot := nodeUnderTest(name, traced)
	out.report["node"] = nodeInfo(boot)
	steal0, total0 := cpuTimes()
	host["cpu_probe_us_start"] = cpuProbe()
	defer func() {
		// Host drift shows in the hypervisor's steal time and in a fixed
		// hashing loop timed at both ends of the run.
		host["cpu_probe_us_end"] = cpuProbe()
		steal1, total1 := cpuTimes()
		host["cpu_steal_pct"] = 100 * ratio(steal1-steal0, total1-total0)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		host["gc_cpu_pct"] = 100 * ms.GCCPUFraction
		host["gc_cycles"] = ms.NumGC
		host["heap_peak_mb"] = float64(ms.HeapSys) / 1e6
	}()
	if !traced {
		var setups []float64
		for i := 1; i < sz.setups; i++ {
			s, err := setUpOnly(name, seed, sz, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), boot)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		p, s, err := runOnce(name, seed, sz, filepath.Join(dir, "run"), nil, boot, d)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		out.absorb(p)
		out.metrics = append(out.metrics, metricVal{"setup_s", "s", median(setups)})
		for _, m := range endToEnd[1:] {
			out.metrics = append(out.metrics, metricVal{m.name, m.unit, p.e2e[m.name]})
		}
		out.report["setup_s_each"] = setups
		out.report["metrics"] = p.named
		out.report["exact"] = p.exact
		return out, nil
	}
	base, _, err := runOnce(name, seed, sz, filepath.Join(dir, "untraced"), nil, boot, d/2)
	if err != nil {
		return nil, err
	}
	p, _, err := runOnce(name, seed, sz, filepath.Join(dir, "traced"), newTracer(), boot, d/2)
	if err != nil {
		return nil, err
	}
	out.absorb(base)
	out.absorb(p)
	p.layers["trace.overhead_pct"] = 100 * (p.e2e["op_p50_ms"]/base.e2e["op_p50_ms"] - 1)
	for _, m := range layerDefs() {
		out.metrics = append(out.metrics, metricVal{m.name, m.unit, p.layers[m.name]})
	}
	out.report["metrics"] = p.named
	out.report["exact"] = p.exact
	out.report["exact_untraced"] = base.exact
	return out, nil
}

func (o *outcome) absorb(p *pass) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
	o.exact = p.exact
}

// hostInfo records what the numbers depend on: CPUs, GOMAXPROCS, the Go
// version, and a raw fsync probe (4 KiB append + fsync) in the data dir.
func hostInfo(dir string) (map[string]any, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var lat []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds()))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"fsync_us_p50": quantile(lat, 0.5), "fsync_us_p99": quantile(lat, 0.99),
	}, nil
}

// nodeInfo records the gridbankd settings the node under test runs.
func nodeInfo(boot bootOptions) map[string]any {
	return map[string]any{
		"shards": nodeShards, "sync": boot.sync, "wal_codec": defaultWALCodec, "wire_codecs": wireCodecs,
		"max_in_flight": core.DefaultMaxInFlight, "dedup_ttl": core.DefaultDedupTTL.String(), "checkpoint_at_boot": true,
		"pipeline_workers": pipeWorkers, "pipeline_batch": pipeBatch, "pipeline_queue": pipeQueue,
	}
}

// cpuProbe times a fixed CPU-bound loop (SHA-256 over 16 MiB) in
// microseconds: the host's speed when the run started and ended.
func cpuProbe() float64 {
	buf := make([]byte, 16<<20)
	start := time.Now()
	sha256.Sum256(buf)
	return float64(time.Since(start).Microseconds())
}

// cpuTimes reads the steal and total jiffies of all CPUs from
// /proc/stat (zeros where that file does not exist).
func cpuTimes() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// quantile is the q-quantile of xs by linear interpolation (0 when
// empty); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// latencies collects client-observed durations per op name.
type latencies struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newLatencies() *latencies { return &latencies{ms: map[string][]float64{}} }

func (l *latencies) add(op string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ms[op] = append(l.ms[op], float64(d)/float64(time.Millisecond))
}

func (l *latencies) q(op string, q float64) float64 {
	return quantile(append([]float64(nil), l.ms[op]...), q)
}

func (l *latencies) mean(op string) float64 {
	xs := l.ms[op]
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
