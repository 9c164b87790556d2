package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ipa"
)

// Options is the one option set every experiment takes. An experiment reads
// the fields it needs and ignores the rest; its defaults live only in its
// registry entry (see Entry.Options).
type Options struct {
	// Profile sizes the simulated device.
	Profile DeviceProfile
	Seed    int64
	// Scheme is the IPA N×M configuration of the IPA write paths.
	Scheme ipa.Scheme
	// Scale is the workload scale factor (branches, warehouses, ...).
	Scale int `json:",omitempty"`
	// Ops bounds each run by committed transactions; Duration bounds it by
	// virtual device time instead (only the experiments whose registry
	// entry is Timed honour Duration).
	Ops      int           `json:",omitempty"`
	Duration time.Duration `json:",omitempty"`
	// Tuples is the number of rows the goroutine-ladder experiments
	// (concurrent, readmix, chips) load before measuring.
	Tuples int `json:",omitempty"`
	// Threads fixes the worker goroutine count; 0 runs the concurrent
	// experiment's ladder 1, 2, 4, 8.
	Threads int `json:",omitempty"`
	// Chips fixes the device chip count; 0 runs the chips experiment's
	// ladder 1, 2, 4, 8 (and the crash harness's single chip).
	Chips int `json:",omitempty"`
	// Sample bounds the crash experiment's fault points per fault mode
	// (0 = every enumerated point).
	Sample int `json:",omitempty"`
	// Ns and Ms are the sweep experiment's N×M grid.
	Ns []int `json:",omitempty"`
	Ms []int `json:",omitempty"`
}

// ladder is the worker-count and chip-count ladder run when Threads or
// Chips is 0.
var ladder = []int{1, 2, 4, 8}

// ladderOr returns the single value fixed, or the ladder when fixed is 0.
func ladderOr(fixed int) []int {
	if fixed > 0 {
		return []int{fixed}
	}
	return ladder
}

// Base returns the options every experiment starts from: the default
// device, seed 1 and the paper's 2×4 scheme.
func Base() Options {
	return Options{Profile: DefaultProfile, Seed: 1, Scheme: ipa.Scheme{N: 2, M: 4}}
}

// overlay returns o with every non-zero field of p. Ops and Duration are
// one run bound: setting either in p replaces both.
func (o Options) overlay(p Options) Options {
	if p.Profile != (DeviceProfile{}) {
		o.Profile = p.Profile
	}
	if p.Seed != 0 {
		o.Seed = p.Seed
	}
	if p.Scheme != (ipa.Scheme{}) {
		o.Scheme = p.Scheme
	}
	if p.Scale != 0 {
		o.Scale = p.Scale
	}
	if p.Ops != 0 || p.Duration != 0 {
		o.Ops, o.Duration = p.Ops, p.Duration
	}
	if p.Tuples != 0 {
		o.Tuples = p.Tuples
	}
	if p.Threads != 0 {
		o.Threads = p.Threads
	}
	if p.Chips != 0 {
		o.Chips = p.Chips
	}
	if p.Sample != 0 {
		o.Sample = p.Sample
	}
	if p.Ns != nil {
		o.Ns = p.Ns
	}
	if p.Ms != nil {
		o.Ms = p.Ms
	}
	return o
}

// experiment builds one engine run of o on the given workload and write
// path; the IPA paths use o.Scheme.
func (o Options) experiment(name, workload string, mode ipa.WriteMode, flash ipa.FlashMode) Experiment {
	e := Experiment{
		Name: name, Workload: workload, Scale: o.Scale,
		Mode: mode, Flash: flash,
		Ops: o.Ops, Duration: o.Duration,
		Profile: o.Profile, Analytic: true, Seed: o.Seed,
	}
	if mode != ipa.Traditional {
		e.Scheme = o.Scheme
	}
	return e
}

// baseline is the traditional out-of-place run [0×0] on MLC Flash.
func (o Options) baseline(name, workload string) Experiment {
	return o.experiment(name, workload, ipa.Traditional, ipa.MLCFull)
}

// Outcome is what an experiment returns: a structured result that renders
// itself as a plain-text table comparable with the paper.
type Outcome interface {
	Write(w io.Writer)
}

// Entry is one registered experiment.
type Entry struct {
	Name  string
	Title string
	// Defaults overlay Base; Quick overlays the defaults (after switching
	// to SmallProfile) for a fast run.
	Defaults Options
	Quick    Options
	// Timed entries may be bounded by virtual device time (Duration).
	Timed bool
	// With names another entry whose selection also selects this one.
	With string
	// Run executes the experiment; done holds the outcomes of the entries
	// already run in this invocation, in registry order.
	Run func(o Options, done map[string]Outcome) (Outcome, error)
}

// Options returns the entry's defaults, shrunk for a fast run when quick
// is set.
func (e Entry) Options(quick bool) Options {
	o := Base()
	if quick {
		o.Profile = SmallProfile
	}
	o = o.overlay(e.Defaults)
	if quick {
		o = o.overlay(e.Quick)
	}
	return o
}

// run adapts a typed experiment function to Entry.Run.
func run[T Outcome](fn func(Options) (T, error)) func(Options, map[string]Outcome) (Outcome, error) {
	return func(o Options, _ map[string]Outcome) (Outcome, error) {
		res, err := fn(o)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// indexQuickProfile shrinks the pool of the quick device too: a pool that
// caches every index page leaves no index I/O to measure.
var indexQuickProfile = DeviceProfile{
	PageSize:        SmallProfile.PageSize,
	Blocks:          SmallProfile.Blocks,
	PagesPerBlock:   SmallProfile.PagesPerBlock,
	BufferPoolPages: 16,
}

// Registry lists every experiment once, in the order `-exp all` runs them.
var Registry = []Entry{
	{
		Name: "table1", Title: "Table 1: TPC-B traditional vs IPA [2x4] pSLC / odd-MLC", Timed: true,
		// The small quick device halves its capacity in pSLC mode; scale 1
		// keeps the TPC-B data set within it.
		Defaults: Options{Scale: 4, Duration: 12 * time.Second},
		Quick:    Options{Scale: 1, Ops: 6000},
		Run:      run(Table1),
	},
	{
		Name: "fig1", Title: "Figure 1: DBMS write-amplification",
		Defaults: Options{Scale: 2, Ops: 8000},
		Quick:    Options{Ops: 3000},
		Run:      run(Figure1),
	},
	{
		Name: "oltp", Title: "OLTP suite: TPC-B / TPC-C / TATP", Timed: true, With: "longevity",
		Defaults: Options{Scale: 2, Duration: 3 * time.Second},
		Quick:    Options{Ops: 4000},
		Run:      run(Suite),
	},
	{
		Name: "longevity", Title: "Longevity: erase budget per host write",
		Run: func(_ Options, done map[string]Outcome) (Outcome, error) {
			suite, ok := done["oltp"].(SuiteResult)
			if !ok {
				return nil, fmt.Errorf("bench: longevity derives from the oltp result, which has not run")
			}
			return Longevity(suite), nil
		},
	},
	{
		Name: "ipl", Title: "IPA vs In-Page Logging",
		Defaults: Options{Scale: 2, Ops: 8000},
		Quick:    Options{Ops: 3000},
		Run:      run(IPLCompare),
	},
	{
		Name: "scenarios", Title: "Demonstration scenarios 1/2/3", Timed: true,
		Defaults: Options{Scale: 2, Ops: 8000},
		Quick:    Options{Scale: 1, Ops: 4000},
		Run:      run(Scenarios),
	},
	{
		Name: "interference", Title: "Program interference on MLC Flash",
		Defaults: Options{Scale: 2, Ops: 6000},
		Quick:    Options{Scale: 1, Ops: 3000},
		Run:      run(Interference),
	},
	{
		Name: "sweep", Title: "N×M scheme sweep",
		Defaults: Options{Scale: 2, Ops: 6000, Ns: []int{1, 2, 4, 8}, Ms: []int{2, 4, 8, 16}},
		Quick:    Options{Ops: 2000, Ns: []int{1, 2, 4}, Ms: []int{4, 8}},
		Run:      run(Sweep),
	},
	{
		Name: "concurrent", Title: "Concurrency scaling: sharded pool + group-commit WAL",
		Defaults: Options{Ops: 8000, Tuples: 4096},
		Quick:    Options{Ops: 6000, Tuples: 2048},
		Run:      run(Concurrent),
	},
	{
		Name: "readmix", Title: "Read-skew ladder: MVCC snapshot reads vs 2PL locked reads", With: "concurrent",
		Defaults: Options{Ops: 4000, Tuples: 1024, Threads: 8},
		Quick:    Options{Ops: 1500, Tuples: 512},
		Run:      run(ReadMix),
	},
	{
		Name: "chips", Title: "Chip scaling: per-chip FTL partitions",
		// Several times the default pool, so updates constantly fetch and
		// evict.
		Defaults: Options{Ops: 8000, Tuples: 16384, Threads: 8},
		Quick:    Options{Ops: 4000, Tuples: 4096},
		Run:      run(Chips),
	},
	{
		// Ops 0 leaves the crash harness's transaction count; the quick run
		// tests a bounded, evenly spread sample per fault mode.
		Name: "crash", Title: "Power-cut torture: crash, recover, verify",
		Quick: Options{Ops: 120, Sample: 12},
		Run:   run(Crash),
	},
	{
		Name: "index", Title: "Index maintenance: IPA vs out-of-place entry pages", Timed: true,
		Defaults: Options{Profile: IndexProfile, Scale: 1, Ops: 20000},
		Quick:    Options{Profile: indexQuickProfile, Ops: 4000},
		Run:      run(Index),
	},
	{
		Name: "secondary", Title: "Secondary indexes: IPA vs out-of-place entry pages", Timed: true,
		Defaults: Options{Profile: IndexProfile, Scale: 1, Ops: 20000},
		Quick:    Options{Profile: indexQuickProfile, Ops: 4000},
		Run:      run(Secondary),
	},
	{
		Name: "ycsb", Title: "YCSB A-F: cache-sized vs larger-than-memory",
		Defaults: Options{Ops: 20000},
		Quick:    Options{Ops: 3000},
		Run:      run(YCSB),
	},
}

// Names returns the registered experiment names in registry order.
func Names() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// Select returns the entries that `-exp name` runs, in registry order:
// every entry for "all", else the named entry and the entries declared
// With it. An unknown name is an error listing the valid ones.
func Select(name string) ([]Entry, error) {
	if name == "all" {
		return Registry, nil
	}
	var out []Entry
	found := false
	for _, e := range Registry {
		if e.Name == name {
			found = true
		}
		if e.Name == name || e.With == name {
			out = append(out, e)
		}
	}
	if !found {
		return nil, fmt.Errorf("bench: unknown experiment %q (valid: %s, all)", name, strings.Join(Names(), ", "))
	}
	return out, nil
}
