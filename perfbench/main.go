// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the engine's public API, checks every output, and
// prints one JSON result line with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run). README.md explains the workloads,
// the metrics and which of them repeat exactly.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload tpcb-ltm --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipa"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	epoch   time.Time
}

// workloads maps each workload to its measured pass and to a set-up whose
// environment is torn down again (for extra set-up time samples).
var workloads = map[string]struct {
	run   func(runConfig, *pass) error
	setup func(seed int64) (teardown func(), err error)
}{
	"tpcb-ltm": {runTPCB, func(seed int64) (func(), error) {
		e, err := setupTPCB(seed)
		if err != nil {
			return nil, err
		}
		return func() { e.db.Close() }, nil
	}},
	"ycsb-b-cached": {runYCSB, func(seed int64) (func(), error) {
		e, err := setupYCSB(seed)
		if err != nil {
			return nil, err
		}
		return func() { e.db.Close() }, nil
	}},
	"wire-mixed": {runWire, func(seed int64) (func(), error) {
		e, err := setupWire(seed)
		if err != nil {
			return nil, err
		}
		return e.close, nil
	}},
}

// minSetups is how many set-ups an untraced run times at least; setup_s
// is their median.
const minSetups = 5

// outDir holds the span files of traced runs.
const outDir = ".bench_build/perfbench"

// tracer returns a recorder for a traced pass (nil otherwise) that keeps
// one op in every `every`.
func (p *pass) tracer(cfg runConfig, every uint64) *tracer {
	if !cfg.traced {
		return nil
	}
	t := newTracer(cfg.epoch, every)
	p.tracers = append(p.tracers, t)
	return t
}

// reopen reopens a crash image as one op of its own and records its wall
// time; garbage is collected first, as before a timed set-up.
func (p *pass) reopen(img *ipa.CrashImage, tr *tracer) (*ipa.DB, error) {
	runtime.GC()
	tr.beginAlwaysOp()
	s := tr.start(spanReopen)
	t0 := time.Now()
	db, err := ipa.Reopen(img)
	p.recovery = append(p.recovery, time.Since(t0))
	tr.end(s)
	tr.endOp()
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	return db, nil
}

// inexact names the per-layer metrics of the in-process workloads that do
// not repeat exactly: wall time, and the virtual clock of recovery, whose
// redo workers run in parallel.
var inexact = map[string]bool{"ckpt.wall_ms_p50": true, "recovery.virtual_ms": true}

// addRound adds one round's per-layer metrics to the pass. The rounds of
// an in-process pass (exact) run the same inputs single-threaded, so every
// counter they derive from the engine, inexact ones aside, must repeat.
func (p *pass) addRound(m map[string]float64, exact bool) error {
	p.rounds++
	if exact && len(p.layers) > 0 {
		for k, v := range m {
			if !inexact[k] && v != p.layers[0][k] {
				return fmt.Errorf("round %d: %s = %v, first round had %v: the counters do not repeat",
					p.rounds, k, v, p.layers[0][k])
			}
		}
	}
	p.layers = append(p.layers, m)
	return nil
}

// layer returns the per-layer metrics of the pass: each one's median over
// the rounds.
func (p *pass) layer() map[string]float64 {
	out := map[string]float64{}
	for k := range p.layers[0] {
		xs := make([]float64, len(p.layers))
		for i, m := range p.layers {
			xs[i] = m[k]
		}
		out[k] = median(xs)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "tpcb-ltm, ycsb-b-cached or wire-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*secs) * time.Second, epoch: time.Now()}
	printRecord(*name, cfg, *trace)

	steal0, total0 := cpuStat()
	res, err := run(*name, w.run, w.setup, cfg, *trace == 1)
	if steal1, total1 := cpuStat(); total1 > total0 {
		fmt.Printf("host: %.2f%% of the machine's CPU time was stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, runPass func(runConfig, *pass) error, setup func(int64) (func(), error), cfg runConfig, traced bool) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	var p pass
	err := runPass(cfg, &p)
	res.Attempted, res.Failed = p.attempted, p.failed
	if err != nil {
		return res, err
	}
	specs, values := endToEnd, map[string]float64{}
	if traced {
		tp := pass{}
		tcfg := cfg
		tcfg.traced = true
		if err := runPass(tcfg, &tp); err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		sum, err := summarize(tp.tracers...)
		if err == nil {
			err = writeTrace(filepath.Join(outDir, "trace-"+name+".csv"), tp.tracers...)
		}
		if err != nil {
			return res, err
		}
		specs, values = perLayer, tp.layer()
		sum.metrics(values)
		values["trace.overhead"] = 1 - tp.opsPerSec()/p.opsPerSec()
		values["tail.op_p99_us"] = p.perWindow(func(s sample) float64 { return s.p99 / 1e3 })
		fmt.Printf("untraced pass: %d rounds, %d ops; traced pass: %d rounds, %d ops, %d spans recorded over %d ops\n",
			p.rounds, p.ops, tp.rounds, tp.ops, spanCount(tp.tracers), sum.opCount)
	} else {
		for len(p.setup) < minSetups {
			teardown, d, err := timed(func() (func(), error) { return setup(cfg.seed) })
			if err != nil {
				return res, fmt.Errorf("extra setup: %w", err)
			}
			p.setup = append(p.setup, d)
			teardown()
		}
		values["setup_s"] = median(seconds(p.setup))
		values["ops_per_s"] = p.opsPerSec()
		values["cpu_us_per_op"] = p.perWindow(func(s sample) float64 {
			return float64(s.cpu) / float64(time.Microsecond) / float64(s.ops)
		})
		values["op_p50_us"] = p.perWindow(func(s sample) float64 { return s.p50 / 1e3 })
		values["op_p90_us"] = p.perWindow(func(s sample) float64 { return s.p90 / 1e3 })
		values["peak_heap_mb"] = median(p.heapMiB)
		values["vtps"] = float64(p.ops) / p.virtual.Seconds()
		values["recovery_s"] = median(seconds(p.recovery))
		fmt.Printf("untraced pass: %d rounds, %d ops in %.3fs; %d windows, %d latency samples; %d setups; %d recoveries\n",
			p.rounds, p.ops, p.wall.Seconds(), len(p.samples), p.latN, len(p.setup), len(p.recovery))
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("  %-40s %16.6f %s\n", s.name, v, s.unit)
	}
	res.Correct = true
	return res, nil
}

func spanCount(ts []*tracer) int {
	n := 0
	for _, t := range ts {
		n += len(t.spans)
	}
	return n
}

// printRecord prints the run record: what was measured, where and how.
func printRecord(name string, cfg runConfig, trace int) {
	devices := map[string]ipa.Config{"tpcb-ltm": paperConfig(), "ycsb-b-cached": paperConfig(), "wire-mixed": serverConfig()}
	dev := devices[name]
	if db, err := ipa.Open(dev); err == nil {
		dev = db.Config() // with the engine's defaults filled in
		db.Close()
	}
	rec := map[string]any{
		"workload":    name,
		"seed":        cfg.seed,
		"run_seconds": cfg.seconds.Seconds(),
		"trace":       trace,
		"git_sha":     gitSHA(),
		"source_sha":  sourceSHA(),
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"device": map[string]any{
			"chips": dev.Chips, "blocks": dev.Blocks, "pages_per_block": dev.PagesPerBlock,
			"page_size": dev.PageSize, "buffer_pool_pages": dev.BufferPoolPages,
			"write_mode": dev.WriteMode.String(), "scheme": dev.Scheme.String(), "flash_mode": dev.FlashMode.String(),
			"checkpoint_every_bytes": dev.CheckpointEveryBytes,
		},
	}
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Println(string(line))
}

// gitSHA returns the checked-out commit, or "" unless the current
// directory is the top of a git work tree (git is kept from searching the
// directories above it).
func gitSHA() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceSHA digests every Go source and module file of the tree, so a run
// identifies the code it measured even where git is not available.
func sourceSHA() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", f)
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
