package main

import (
	"time"

	"ipa"
)

// metricSpec names one reported metric. The two tables below must equal
// the end_to_end and per_layer lists of BENCHMARK.json (a test checks).
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a user of the engine sees. Every workload reports all of
// them, and none is ever zero.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"vtps", "1/s", "higher"},
	{"recovery_s", "s", "lower"},
}

// perLayer is measured per layer, from outside: deltas of the engine's
// counters around the measured phase and spans around the benchmark's own
// API calls. Counts are normalised per acknowledged op.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"flashdev.page_reads_per_op", "count/op", "lower"},
		{"flashdev.page_programs_per_op", "count/op", "lower"},
		{"flashdev.delta_programs_per_op", "count/op", "lower"},
		{"flashdev.ecc_kib_per_op", "KiB/op", "lower"},
		{"flashdev.busy_virtual_ms_per_op", "ms/op", "lower"},
		{"flashdev.chip_busy_skew", "ratio", "lower"},
		{"ftl.in_place_share", "share", "higher"},
		{"ftl.gc_runs_per_kop", "count/kop", "lower"},
		{"ftl.gc_migrations_per_kop", "count/kop", "lower"},
		{"ftl.migrations_per_host_write", "ratio", "lower"},
		{"gc_erases_per_ktx", "count/ktx", "lower"},
		{"flash_write_amp", "ratio", "lower"},
		{"storage.dirty_evictions_per_op", "count/op", "lower"},
		{"storage.ipa_append_share", "share", "higher"},
		{"storage.append_fallback_share", "share", "lower"},
		{"storage.delta_bytes_per_append", "B", "lower"},
		{"storage.index_ipa_append_share", "share", "higher"},
		{"buffer.hit_ratio", "share", "higher"},
		{"buffer.misses_per_op", "count/op", "lower"},
		{"index.page_reads_per_op", "count/op", "lower"},
		{"index.page_writes_per_op", "count/op", "lower"},
		{"txn.lock_acquisitions_per_op", "count/op", "lower"},
		{"txn.lock_conflicts", "count", "lower"},
		{"mvcc.version_read_share", "share", "lower"},
		{"mvcc.chains_live_max", "count", "lower"},
		{"wal.bytes_per_op", "B/op", "lower"},
		{"wal.commits_per_flush", "ratio", "higher"},
		{"wal.live_kib_max", "KiB", "lower"},
		{"wal.segments_max", "count", "lower"},
		{"ckpt.count", "count", "lower"},
		{"ckpt.pages_flushed_per_ckpt", "count", "lower"},
		{"ckpt.wall_ms_p50", "ms", "lower"},
		{"wal.bytes_since_ckpt_max", "B", "lower"},
		{"recovery.pages_scanned", "count", "lower"},
		{"recovery.records_redone", "count", "lower"},
		{"recovery.virtual_ms", "ms", "lower"},
		{"wire.server_exec_us_per_op", "us", "lower"},
		{"wire.overhead_us_per_op", "us", "lower"},
		{"server.error_replies", "count", "lower"},
	}
	for _, n := range spanNames {
		m = append(m, metricSpec{"span." + n + ".self_us_mean", "us", "lower"})
	}
	for _, n := range spanNames {
		m = append(m, metricSpec{"span." + n + ".share", "share", "lower"})
	}
	return append(m,
		metricSpec{"trace.overhead", "share", "lower"},
		metricSpec{"tail.op_p99_us", "us", "lower"})
}()

// pass is what one execution of a workload measured: one or more rounds,
// each a fresh setup, a measured phase and a crash recovery.
type pass struct {
	rounds    int
	attempted int
	failed    int
	ops       int           // acknowledged ops in the measured phases
	wall      time.Duration // wall time of the measured phases
	samples   []sample      // windows of the measured phases
	latN      uint64        // latency samples over all windows
	setup     []time.Duration
	recovery  []time.Duration
	virtual   time.Duration        // virtual device time of the measured phases
	heapMiB   []float64            // live heap at the end of each round's measured phase
	layers    []map[string]float64 // per-layer metrics of each round
	tracers   []*tracer
}

// addWindow records one measurement window.
func (p *pass) addWindow(ops int, wall, cpu time.Duration, lat *hist) {
	p.samples = append(p.samples, sample{ops: ops, wall: wall, cpu: cpu,
		p50: lat.quantile(0.50), p90: lat.quantile(0.90), p99: lat.quantile(0.99)})
	p.latN += lat.n
}

// perWindow returns the median over windows of f.
func (p *pass) perWindow(f func(sample) float64) float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func (p *pass) opsPerSec() float64 {
	return p.perWindow(func(s sample) float64 { return float64(s.ops) / s.wall.Seconds() })
}

// gauges are the sampled maxima and per-event figures a workload records
// beside the counter deltas.
type gauges struct {
	chainsLiveMax     uint64
	walLiveMax        uint64
	walSegmentsMax    int
	bytesSinceCkptMax uint64
	ckptPages         []int
	ckptWall          []float64 // ms
	recovery          ipa.RecoveryStats
}

func (g *gauges) sample(s ipa.Stats, walLive uint64) {
	g.chainsLiveMax = max(g.chainsLiveMax, s.VersionChainsLive)
	g.walSegmentsMax = max(g.walSegmentsMax, s.WALSegments)
	g.bytesSinceCkptMax = max(g.bytesSinceCkptMax, s.WALBytesSinceCheckpoint)
	g.walLiveMax = max(g.walLiveMax, walLive)
}

// window is the engine's view of one measured phase: the counters since
// ResetStats (after) and the lifetime per-chip clocks at both ends.
type window struct {
	before, after ipa.Stats
	ops           int
	changedBytes  uint64 // bytes the acknowledged writes changed
	pageSize      int
}

// layerMetrics derives the counter-based per-layer metrics of one round.
func layerMetrics(w window, g *gauges) map[string]float64 {
	s := w.after
	ops := float64(w.ops)
	per := func(v uint64) float64 { return float64(v) / ops }
	m := map[string]float64{}

	m["flashdev.page_reads_per_op"] = per(s.FlashPageReads)
	m["flashdev.page_programs_per_op"] = per(s.FlashPagePrograms)
	m["flashdev.delta_programs_per_op"] = per(s.FlashDeltaPrograms)
	// ECC work from outside: every page read is verified and every page
	// program signed over (about) the page; each delta record is signed.
	eccBytes := (s.FlashPageReads+s.FlashPagePrograms)*uint64(w.pageSize) + s.DeltaBytesWritten
	m["flashdev.ecc_kib_per_op"] = float64(eccBytes) / 1024 / ops
	var busy, busyMax time.Duration
	for i, c := range s.ChipStats {
		d := c.Busy - w.before.ChipStats[i].Busy
		busy += d
		busyMax = max(busyMax, d)
	}
	m["flashdev.busy_virtual_ms_per_op"] = float64(busy) / float64(time.Millisecond) / ops
	m["flashdev.chip_busy_skew"] = 0
	if busy > 0 {
		m["flashdev.chip_busy_skew"] = float64(busyMax) / (float64(busy) / float64(len(s.ChipStats)))
	}

	m["ftl.in_place_share"] = s.InPlaceShare()
	m["ftl.gc_runs_per_kop"] = 1000 * per(s.GCRuns)
	m["ftl.gc_migrations_per_kop"] = 1000 * per(s.GCMigrations)
	m["ftl.migrations_per_host_write"] = s.MigrationsPerHostWrite()
	m["gc_erases_per_ktx"] = ratio(1000*s.GCErases, s.CommittedTxns)
	flashBytes := s.FlashPagePrograms*uint64(w.pageSize) + s.DeltaBytesWritten
	m["flash_write_amp"] = ratio(flashBytes, w.changedBytes)

	m["storage.dirty_evictions_per_op"] = per(s.DirtyEvictions)
	m["storage.ipa_append_share"] = ratio(s.IPAAppendEvictions, s.DirtyEvictions)
	m["storage.append_fallback_share"] = ratio(s.AppendFallbacks, s.IPAAppendEvictions+s.AppendFallbacks)
	m["storage.delta_bytes_per_append"] = ratio(s.DeltaBytesWritten, s.IPAAppendEvictions)
	m["storage.index_ipa_append_share"] = s.IndexInPlaceShare()

	m["buffer.hit_ratio"] = ratio(s.BufferHits, s.BufferHits+s.BufferMisses)
	m["buffer.misses_per_op"] = per(s.BufferMisses)
	m["index.page_reads_per_op"] = per(s.IndexPageReads)
	m["index.page_writes_per_op"] = per(s.IndexPageWrites)

	m["txn.lock_acquisitions_per_op"] = per(s.LockAcquisitions)
	m["txn.lock_conflicts"] = float64(s.LockConflicts)
	m["mvcc.version_read_share"] = s.VersionChasedPerRead()
	m["mvcc.chains_live_max"] = float64(g.chainsLiveMax)

	m["wal.bytes_per_op"] = per(s.WALBytes)
	m["wal.commits_per_flush"] = s.CommitsPerFlush()
	m["wal.live_kib_max"] = float64(g.walLiveMax) / 1024
	m["wal.segments_max"] = float64(g.walSegmentsMax)

	m["ckpt.count"] = float64(len(g.ckptPages))
	pages := 0
	for _, p := range g.ckptPages {
		pages += p
	}
	m["ckpt.pages_flushed_per_ckpt"] = 0
	if len(g.ckptPages) > 0 {
		m["ckpt.pages_flushed_per_ckpt"] = float64(pages) / float64(len(g.ckptPages))
	}
	m["ckpt.wall_ms_p50"] = median(g.ckptWall)
	m["wal.bytes_since_ckpt_max"] = float64(g.bytesSinceCkptMax)
	m["recovery.pages_scanned"] = float64(g.recovery.PagesScanned)
	m["recovery.records_redone"] = float64(g.recovery.RecordsRedone)
	m["recovery.virtual_ms"] = float64(g.recovery.Virtual) / float64(time.Millisecond)

	m["wire.server_exec_us_per_op"] = 0
	m["wire.overhead_us_per_op"] = 0
	m["server.error_replies"] = 0
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
