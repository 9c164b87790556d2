package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ipa"
)

func TestNewWorkloadNames(t *testing.T) {
	for _, name := range []string{"tpcb", "tpcc", "tatp", "linkbench", "tatpsec", "linkbenchsec", "secchurn"} {
		w, err := NewWorkload(name, 1, 1)
		if err != nil {
			t.Fatalf("NewWorkload(%s): %v", name, err)
		}
		if w.Name() != name {
			t.Fatalf("driver name %q != %q", w.Name(), name)
		}
	}
	if _, err := NewWorkload("nosuch", 1, 1); err == nil {
		t.Fatalf("unknown workload must be rejected")
	}
}

// TestNewWorkloadYCSB covers the Experiment-API entry point.
func TestNewWorkloadYCSB(t *testing.T) {
	w, err := NewWorkload("ycsb-f", 1, 3)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	if w.Name() != "ycsb-f" {
		t.Fatalf("name = %q", w.Name())
	}
	if _, err := NewWorkload("ycsb-z", 1, 3); err == nil {
		t.Fatal("ycsb-z accepted")
	}
}

func TestRunNeedsALimit(t *testing.T) {
	if _, err := RunWithDB(Experiment{Name: "x", Workload: "tpcb"}, nil); err == nil {
		t.Fatalf("experiments without Ops or Duration must be rejected")
	}
}

func TestRunBaselineVsIPA(t *testing.T) {
	o := Base()
	o.Profile, o.Scale, o.Ops = SmallProfile, 1, 600
	baseRes, err := RunWithDB(o.baseline("t-base", "tpcb"), nil)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	ipaRes, err := RunWithDB(o.experiment("t-ipa", "tpcb", ipa.IPANativeFlash, ipa.PSLC), nil)
	if err != nil {
		t.Fatalf("ipa run: %v", err)
	}
	if baseRes.Run.Committed != 600 || ipaRes.Run.Committed != 600 {
		t.Fatalf("both runs must commit 600 transactions")
	}
	bs, is := baseRes.Stats, ipaRes.Stats
	if bs.InPlaceAppends != 0 {
		t.Fatalf("baseline must not append in place")
	}
	if is.InPlaceAppends == 0 {
		t.Fatalf("IPA run must append in place")
	}
	if is.Invalidations >= bs.Invalidations {
		t.Fatalf("IPA must invalidate fewer pages: %d vs %d", is.Invalidations, bs.Invalidations)
	}
	if ipaRes.Throughput() <= baseRes.Throughput() {
		t.Fatalf("IPA throughput (%.1f) must exceed the baseline (%.1f)", ipaRes.Throughput(), baseRes.Throughput())
	}
}

// smokeCase shrinks one registry entry's quick options and checks its
// outcome.
type smokeCase struct {
	small Options
	// deterministic entries are single-threaded: the same options must
	// give byte-identical result JSON.
	deterministic bool
	check         func(t *testing.T, res Outcome)
}

// smokeCases holds one case per registry entry (TestExperiments fails on
// an entry without one).
var smokeCases = map[string]smokeCase{
	"table1": {
		small: Options{Scale: 1, Ops: 800}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(Table1Result)
			if res.Baseline.InPlacePct != 0 {
				t.Fatalf("baseline must have no in-place appends")
			}
			if res.PSLC.InPlacePct <= res.OddMLC.InPlacePct {
				t.Fatalf("pSLC must serve more appends than odd-MLC: %.1f vs %.1f",
					res.PSLC.InPlacePct, res.OddMLC.InPlacePct)
			}
			if res.PSLC.Throughput <= res.Baseline.Throughput {
				t.Fatalf("IPA pSLC throughput must exceed the baseline")
			}
			mustRender(t, res, "Host Reads", "GC Erases", "Transactional Throughput")
		},
	},
	"fig1": {
		small: Options{Scale: 1, Ops: 400}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(Figure1Result)
			if len(res.Rows) != len(figure1Workloads) {
				t.Fatalf("rows = %d, want one per workload", len(res.Rows))
			}
			row := res.Rows[0]
			if row.Workload != "tpcb" || row.DirtyEvictions == 0 {
				t.Fatalf("no dirty evictions observed for %s", row.Workload)
			}
			if row.SmallEvictionShare < 0.5 {
				t.Fatalf("OLTP evictions should be dominated by small changes, got %.2f", row.SmallEvictionShare)
			}
			if row.WriteAmplification < 10 {
				t.Fatalf("traditional write amplification should be large, got %.1f", row.WriteAmplification)
			}
			if row.IPAReductionPct <= 0 {
				t.Fatalf("IPA must reduce the transferred bytes, got %.1f%%", row.IPAReductionPct)
			}
			mustRender(t, res, "tpcb")
		},
	},
	"oltp": {
		small: Options{Scale: 1, Ops: 600}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			row := out.(SuiteResult).Rows[0]
			if row.ThroughputGainPct <= 0 {
				t.Fatalf("IPA should improve throughput, got %+.1f%%", row.ThroughputGainPct)
			}
			if row.InvalidationDropPct <= 0 {
				t.Fatalf("IPA should reduce invalidations, got %+.1f%%", row.InvalidationDropPct)
			}
			mustRender(t, out, "OLTP suite")
		},
	},
	"longevity": {
		deterministic: true,
		check: func(t *testing.T, out Outcome) {
			rows := out.(LongevityResult)
			if len(rows) != 2*len(suiteWorkloads) {
				t.Fatalf("expected 2 longevity rows per suite workload, got %d", len(rows))
			}
			mustRender(t, rows, "longevity")
		},
	},
	"ipl": {
		small: Options{Scale: 1, Ops: 400}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			row := out.(IPLResult).Rows[0]
			if row.IPLFlashReads <= row.IPAFlashReads {
				t.Fatalf("IPL must read more pages than IPA (read amplification): %d vs %d",
					row.IPLFlashReads, row.IPAFlashReads)
			}
			if row.IPAFlashWrites == 0 || row.IPLFlashWrites == 0 {
				t.Fatalf("write counters missing")
			}
			mustRender(t, out, "In-Page Logging")
		},
	},
	"scenarios": {
		small: Options{Scale: 1, Ops: 600}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(ScenarioResult)
			base, ssd, native := res.Baseline, res.SSD, res.Native
			if base.InPlaceAppends != 0 {
				t.Fatalf("scenario 1 must not append in place")
			}
			if ssd.InPlaceAppends == 0 || native.InPlaceAppends == 0 {
				t.Fatalf("scenarios 2 and 3 must append in place")
			}
			// Scenario 3 transfers far fewer bytes than scenario 2 for the
			// same work.
			if native.HostBytesWritten >= ssd.HostBytesWritten {
				t.Fatalf("write_delta must reduce transferred bytes: %d vs %d",
					native.HostBytesWritten, ssd.HostBytesWritten)
			}
			// Both IPA scenarios invalidate fewer pages than the baseline.
			if ssd.Invalidations >= base.Invalidations || native.Invalidations >= base.Invalidations {
				t.Fatalf("IPA scenarios must reduce invalidations: base=%d ssd=%d native=%d",
					base.Invalidations, ssd.Invalidations, native.Invalidations)
			}
			mustRender(t, res, "scenario")
		},
	},
	"interference": {
		small: Options{Scale: 1, Ops: 800}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(InterferenceResult)
			if len(res.Rows) != 3 {
				t.Fatalf("expected rows for MLC, odd-MLC and pSLC")
			}
			byMode := map[ipa.FlashMode]InterferenceRow{}
			for _, row := range res.Rows {
				byMode[row.Mode] = row
			}
			if byMode[ipa.PSLC].InterferenceBits != 0 {
				t.Fatalf("pSLC must not suffer interference, got %d bits", byMode[ipa.PSLC].InterferenceBits)
			}
			if byMode[ipa.MLCFull].InterferenceBits == 0 {
				t.Fatalf("MLC-full with fault injection must show interference")
			}
			if byMode[ipa.OddMLC].InterferenceBits > byMode[ipa.MLCFull].InterferenceBits {
				t.Fatalf("odd-MLC must suffer less interference than MLC-full: %d vs %d",
					byMode[ipa.OddMLC].InterferenceBits, byMode[ipa.MLCFull].InterferenceBits)
			}
			mustRender(t, res, "interference")
		},
	},
	"sweep": {
		small: Options{Scale: 1, Ops: 300, Ns: []int{1, 2}, Ms: []int{4}}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(SweepResult)
			if len(res.Rows) != 2 {
				t.Fatalf("expected 2 grid points, got %d", len(res.Rows))
			}
			// A larger N must not lower the in-place share.
			if res.Rows[1].InPlaceShare < res.Rows[0].InPlaceShare {
				t.Fatalf("in-place share should grow with N: %.2f then %.2f",
					res.Rows[0].InPlaceShare, res.Rows[1].InPlaceShare)
			}
			if res.Rows[0].AreaBytes >= res.Rows[1].AreaBytes {
				t.Fatalf("area size should grow with N")
			}
			mustRender(t, res, "scheme")
		},
	},
	"concurrent": {
		small: Options{Tuples: 512, Ops: 400},
		check: func(t *testing.T, out Outcome) {
			res := out.(ConcurrentResult)
			if len(res.Rows) != len(ladder) {
				t.Fatalf("rows = %d, want %d", len(res.Rows), len(ladder))
			}
			for _, row := range res.Rows {
				if row.Committed != 400 {
					t.Errorf("goroutines=%d committed %d, want 400", row.Goroutines, row.Committed)
				}
				if row.OpsPerSec <= 0 {
					t.Errorf("goroutines=%d reported no throughput", row.Goroutines)
				}
				if row.WALFlushes == 0 || row.WALFlushes > row.Committed {
					t.Errorf("goroutines=%d implausible flush count %d", row.Goroutines, row.WALFlushes)
				}
				if row.CommitsPerFlush < 1 {
					t.Errorf("goroutines=%d commits/flush %f < 1", row.Goroutines, row.CommitsPerFlush)
				}
				if row.Stats.BufferShards < 2 {
					t.Errorf("expected a sharded pool, got %d shards", row.Stats.BufferShards)
				}
			}
			if res.Rows[0].Speedup != 1 {
				t.Errorf("baseline speedup = %f, want 1", res.Rows[0].Speedup)
			}
			mustRender(t, res, "goroutines")
		},
	},
	"readmix": {
		small: Options{Threads: 4, Tuples: 256, Ops: 200},
		check: func(t *testing.T, out Outcome) {
			res := out.(ReadMixResult)
			if len(res.Rows) != 2*len(readMixPcts) {
				t.Fatalf("rows = %d, want a (snapshot, locked) pair per read percentage", len(res.Rows))
			}
			for i, row := range res.Rows {
				if row.Locked != (i%2 == 1) {
					t.Fatalf("row %d locked=%v, want (snapshot, locked) pairs", i, row.Locked)
				}
				if row.Committed != 200 {
					t.Errorf("read%%=%d locked=%v committed %d, want 200", row.ReadPct, row.Locked, row.Committed)
				}
				if row.OpsPerSec <= 0 {
					t.Errorf("read%%=%d locked=%v reported no throughput", row.ReadPct, row.Locked)
				}
			}
			mustRender(t, res, "read%")
		},
	},
	"chips": {
		small: Options{Threads: 4, Tuples: 4096, Ops: 1200},
		check: func(t *testing.T, out Outcome) {
			res := out.(ChipsResult)
			if len(res.Rows) != len(ladder) {
				t.Fatalf("rows = %d, want %d", len(res.Rows), len(ladder))
			}
			for _, row := range res.Rows {
				if row.Committed != 1200 {
					t.Errorf("chips=%d committed %d, want 1200", row.Chips, row.Committed)
				}
				if row.VirtualTPS <= 0 || row.WallPerSec <= 0 {
					t.Errorf("chips=%d reported no throughput", row.Chips)
				}
				if row.Stats.Chips != row.Chips || len(row.Stats.ChipStats) != row.Chips {
					t.Errorf("chips=%d stats report %d chips", row.Chips, row.Stats.Chips)
				}
				if row.Balance <= 0 || row.Balance > 1 {
					t.Errorf("chips=%d implausible balance %f", row.Chips, row.Balance)
				}
			}
			if res.Rows[0].Speedup != 1 {
				t.Errorf("baseline speedup = %f, want 1", res.Rows[0].Speedup)
			}
			mustRender(t, res, "chips")
		},
	},
	"crash": {
		small: Options{Ops: 40, Sample: 2},
		check: func(t *testing.T, out Outcome) {
			res := out.(CrashResult)
			if len(res.Rows) != 3 {
				t.Fatalf("rows = %d, want one per write path", len(res.Rows))
			}
			for _, row := range res.Rows {
				if row.Crashes == 0 || len(row.Failures) > 0 {
					t.Errorf("%s: %d crashes, failures %v", row.Mode, row.Crashes, row.Failures)
				}
			}
			mustRender(t, res, "Power-cut torture")
		},
	},
	"index": {
		small: Options{Ops: 600}, deterministic: true,
		check: func(t *testing.T, out Outcome) { checkIndex(t, out, "tatp", "Index maintenance") },
	},
	"secondary": {
		small: Options{Ops: 600}, deterministic: true,
		check: func(t *testing.T, out Outcome) { checkIndex(t, out, "secchurn", "Secondary-index maintenance") },
	},
	"ycsb": {
		small: Options{Ops: 1500}, deterministic: true,
		check: func(t *testing.T, out Outcome) {
			res := out.(YCSBResult)
			if len(res.Rows) != len(ycsbLetters)*len(ycsbHeapFactors) {
				t.Fatalf("rows = %d, want one per letter and heap factor", len(res.Rows))
			}
			byKey := map[string]YCSBRow{}
			for _, r := range res.Rows {
				if r.Committed == 0 {
					t.Errorf("%s %gx committed no ops", r.Workload, r.HeapFactor)
				}
				byKey[fmt.Sprintf("%s|%g", r.Workload, r.HeapFactor)] = r
			}
			small, large := byKey["ycsb-a|0.5"], byKey["ycsb-a|8"]
			if large.Records <= small.Records {
				t.Errorf("8x records %d not larger than cache-sized %d", large.Records, small.Records)
			}
			if large.DirtyEvicts == 0 {
				t.Error("larger-than-memory A run evicted nothing — pool not under pressure")
			}
			if large.IPASharePct <= 0 {
				t.Error("update-heavy A run recorded no in-place appends")
			}
			if c := byKey["ycsb-c|8"]; c.DirtyEvicts != 0 {
				t.Errorf("read-only C run evicted %d dirty pages", c.DirtyEvicts)
			}
			mustRender(t, res, "workload")
		},
	},
}

// checkIndex: the out-of-place rows never append, and the IPA row of the
// headline workload serves index-page evictions as delta appends.
func checkIndex(t *testing.T, out Outcome, headline, title string) {
	t.Helper()
	res := out.(IndexResult)
	if len(res.Rows) == 0 || len(res.Rows)%2 != 0 {
		t.Fatalf("rows = %d, want (out-of-place, IPA) pairs", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		base, native := res.Rows[i], res.Rows[i+1]
		if base.IndexInPlace != 0 {
			t.Errorf("%s out-of-place row appended %d index pages in place", base.Workload, base.IndexInPlace)
		}
		if native.Workload == headline && native.IndexInPlace == 0 {
			t.Errorf("%s IPA row appended no index page in place (%d index evictions)", native.Workload, native.IndexPageWrites)
		}
	}
	mustRender(t, res, title)
}

func mustRender(t *testing.T, res Outcome, wants ...string) {
	t.Helper()
	var sb strings.Builder
	res.Write(&sb)
	for _, want := range wants {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, sb.String())
		}
	}
}

// TestExperiments runs every registry entry, in registry order, on its
// quick options shrunk by its smoke case, checks the outcome, and reruns
// the single-threaded entries to pin that they are deterministic.
func TestExperiments(t *testing.T) {
	done := map[string]Outcome{}
	for _, e := range Registry {
		c, ok := smokeCases[e.Name]
		if !ok {
			t.Errorf("experiment %q has no smoke case", e.Name)
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			o := e.Options(true).overlay(c.small)
			// The rerun of a deterministic entry goes alongside the first
			// run; sharing the process must not change its result either.
			var again Outcome
			var againErr error
			rerun := make(chan struct{})
			go func() {
				defer close(rerun)
				if c.deterministic {
					again, againErr = e.Run(o, done)
				}
			}()
			res, err := e.Run(o, done)
			<-rerun
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			done[e.Name] = res
			c.check(t, res)
			if !c.deterministic {
				return
			}
			if againErr != nil {
				t.Fatalf("%s rerun: %v", e.Name, againErr)
			}
			first, _ := json.Marshal(res)
			second, _ := json.Marshal(again)
			if string(first) != string(second) {
				t.Fatalf("%s is not deterministic: two runs of the same options differ", e.Name)
			}
		})
	}
}

// quickOptions returns the named entry's quick options overlaid by small.
func quickOptions(tb testing.TB, name string, small Options) Options {
	tb.Helper()
	e, err := Select(name)
	if err != nil {
		tb.Fatal(err)
	}
	return e[0].Options(true).overlay(small)
}

// TestReadMixScenario: a 100%-read snapshot cell takes no record locks at
// all; the locked baseline takes one per read.
func TestReadMixScenario(t *testing.T) {
	o := quickOptions(t, "readmix", Options{Threads: 4, Tuples: 256, Ops: 200})
	snap, err := readMixCell(o, 100, false)
	if err != nil {
		t.Fatalf("snapshot cell: %v", err)
	}
	lock, err := readMixCell(o, 100, true)
	if err != nil {
		t.Fatalf("locked cell: %v", err)
	}
	if snap.LockAcquisitions != 0 {
		t.Errorf("snapshot run acquired %d record locks, want 0", snap.LockAcquisitions)
	}
	if snap.SnapshotReads == 0 {
		t.Errorf("snapshot run recorded no snapshot reads")
	}
	if lock.LockAcquisitions == 0 {
		t.Errorf("locked run acquired no record locks")
	}
}
