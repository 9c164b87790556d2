// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation:
//
//   - Figure 1: DBMS write-amplification of the traditional write path vs
//     In-Place Appends (net modified bytes per evicted dirty page).
//   - Table 1: TPC-B under the traditional approach [0×0] and IPA [2×4] in
//     pSLC and odd-MLC modes (host I/O, GC work, throughput).
//   - The OLTP suite backing the throughput/erase/migration claims for
//     TPC-B, TPC-C and TATP.
//   - The IPA vs In-Page Logging comparison (trace replay).
//   - The longevity estimate and the N×M scheme sweep ablation.
//
// Beside them it runs the engine's own scenarios: the demonstration
// scenarios, program interference, index maintenance, YCSB, the
// concurrency and chip ladders and the crash torture. Every experiment
// takes the one Options type and returns a structured result that renders
// itself as a plain-text table; Registry lists each experiment once with
// its defaults and quick-run overrides.
package bench

import (
	"fmt"
	"time"

	"ipa"
	"ipa/internal/workload"
)

// Experiment describes one benchmark run.
type Experiment struct {
	// Name labels the run in reports.
	Name string
	// Workload selects the driver: "tpcb", "tpcc", "tatp", "linkbench",
	// a YCSB letter ("ycsb-a" .. "ycsb-f"), or a secondary-index variant
	// — "tatpsec" (sub_nbr lookups), "linkbenchsec" (assoc-by-id2) or
	// "secchurn" (isolated secondary-entry churn).
	Workload string
	// Scale is the workload scale factor (branches, warehouses,
	// subscribers/10000, nodes/10000 depending on the driver).
	Scale int

	// Mode, Scheme and Flash configure the write path under test.
	Mode   ipa.WriteMode
	Scheme ipa.Scheme
	Flash  ipa.FlashMode
	// IndexScheme overrides the N×M scheme of index entry pages (zero
	// inherits Scheme); see ipa.Config.IndexScheme.
	IndexScheme ipa.Scheme

	// Ops bounds the measurement by committed transactions; Duration
	// bounds it by virtual device time. At least one must be set.
	Ops      int
	Duration time.Duration

	// Profile sizes the device (zero selects DefaultProfile).
	Profile DeviceProfile

	// Analytic enables per-eviction byte accounting; TraceEvictions
	// records the trace needed for the IPL comparison.
	Analytic       bool
	TraceEvictions bool

	Seed int64
}

// DeviceProfile selects the default device sizing of the harness: a scaled-
// down OpenSSD-like device that is large enough for GC to matter but small
// enough to simulate quickly.
type DeviceProfile struct {
	PageSize        int
	Blocks          int
	PagesPerBlock   int
	BufferPoolPages int
}

// DefaultProfile is the device of every experiment run without -quick
// (the index experiments shrink its pool), and of an Experiment that
// leaves Profile zero.
var DefaultProfile = DeviceProfile{
	PageSize:        8 * 1024,
	Blocks:          128,
	PagesPerBlock:   64,
	BufferPoolPages: 128,
}

// SmallProfile is the reduced sizing of -quick runs and unit tests. It is
// large enough that the pSLC configurations (which halve the capacity)
// still have ample headroom over the scale-1/2 data sets.
var SmallProfile = DeviceProfile{
	PageSize:        4 * 1024,
	Blocks:          96,
	PagesPerBlock:   32,
	BufferPoolPages: 48,
}

// Result bundles the outcome of one experiment.
type Result struct {
	Experiment Experiment
	Stats      ipa.Stats
	Run        workload.RunResult
	LoadTime   time.Duration // virtual time consumed by the load phase
}

// Throughput returns committed transactions per virtual second.
func (r Result) Throughput() float64 { return r.Stats.Throughput() }

// NewWorkload instantiates the driver named by the experiment.
func NewWorkload(name string, scale int, seed int64) (workload.Workload, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "tpcb":
		cfg := workload.DefaultTPCBConfig()
		cfg.Branches = scale
		cfg.Seed = seed
		return workload.NewTPCB(cfg), nil
	case "tpcc":
		cfg := workload.DefaultTPCCConfig()
		cfg.Warehouses = scale
		cfg.Seed = seed
		return workload.NewTPCC(cfg), nil
	case "tatp", "tatpsec":
		cfg := workload.DefaultTATPConfig()
		cfg.Subscribers = scale * 5000
		cfg.Seed = seed
		cfg.SecondaryLookups = name == "tatpsec"
		return workload.NewTATP(cfg), nil
	case "linkbench", "linkbenchsec":
		cfg := workload.DefaultLinkBenchConfig()
		cfg.Nodes = scale * 5000
		cfg.Seed = seed
		cfg.AssocByID2 = name == "linkbenchsec"
		return workload.NewLinkBench(cfg), nil
	case "secchurn":
		cfg := workload.DefaultSecondaryChurnConfig()
		cfg.Rows = scale * 10000
		cfg.Seed = seed
		return workload.NewSecondaryChurn(cfg), nil
	case "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f":
		cfg := workload.DefaultYCSBConfig(name[len("ycsb-")])
		cfg.Records = scale * 5000
		cfg.Seed = seed
		return workload.NewYCSB(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
}

// config builds the engine configuration for an experiment.
func (e Experiment) config() ipa.Config {
	p := e.Profile
	if p == (DeviceProfile{}) {
		p = DefaultProfile
	}
	return ipa.Config{
		PageSize:        p.PageSize,
		Blocks:          p.Blocks,
		PagesPerBlock:   p.PagesPerBlock,
		BufferPoolPages: p.BufferPoolPages,
		WriteMode:       e.Mode,
		Scheme:          e.Scheme,
		IndexScheme:     e.IndexScheme,
		FlashMode:       e.Flash,
		Analytic:        e.Analytic,
		TraceEvictions:  e.TraceEvictions,
		Seed:            e.Seed,
	}
}

// openLoaded opens a database with cfg, loads w and resets the counters,
// returning the virtual time the load consumed.
func openLoaded(cfg ipa.Config, w workload.Workload) (*ipa.DB, time.Duration, error) {
	db, err := ipa.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	loadStart := db.Now()
	if err := w.Load(db); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	loadTime := db.Now() - loadStart
	db.ResetStats()
	return db, loadTime, nil
}

// RunWithDB executes one experiment: open a fresh database, load the
// workload, reset the counters and run the measurement phase. A non-nil
// use is handed the database after the measurement (e.g. to fetch the
// eviction trace).
func RunWithDB(e Experiment, use func(db *ipa.DB, res Result) error) (Result, error) {
	w, err := NewWorkload(e.Workload, e.Scale, e.Seed)
	if err != nil {
		return Result{}, err
	}
	return runWorkload(e, w, use)
}

// runWorkload is RunWithDB on an already built workload driver.
func runWorkload(e Experiment, w workload.Workload, use func(db *ipa.DB, res Result) error) (Result, error) {
	if e.Ops <= 0 && e.Duration <= 0 {
		return Result{}, fmt.Errorf("bench: experiment %q needs Ops or Duration", e.Name)
	}
	db, loadTime, err := openLoaded(e.config(), w)
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s: %w", e.Name, err)
	}
	defer db.Close()
	run, err := workload.Run(db, w, workload.RunOptions{MaxOps: e.Ops, Duration: e.Duration, Seed: e.Seed + 1})
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s run: %w", e.Name, err)
	}
	if err := db.FlushAll(); err != nil {
		return Result{}, fmt.Errorf("bench: %s flush: %w", e.Name, err)
	}
	res := Result{Experiment: e, Stats: db.Stats(), Run: run, LoadTime: loadTime}
	if use != nil {
		if err := use(db, res); err != nil {
			return res, err
		}
	}
	return res, nil
}
