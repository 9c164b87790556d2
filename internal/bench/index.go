package bench

import (
	"fmt"
	"io"

	"ipa"
)

// IndexProfile is the device sizing of the index experiments: the default
// device with a deliberately small buffer pool, so index maintenance
// actually reaches Flash instead of being absorbed by the cache (a cache
// big enough to hold every index page would leave nothing to measure).
var IndexProfile = DeviceProfile{
	PageSize:        8 * 1024,
	Blocks:          128,
	PagesPerBlock:   64,
	BufferPoolPages: 24,
}

// indexScheme sizes the index-region scheme (Config.IndexScheme). An index
// entry insert patches ~20 body bytes (entry + slot), so index pages want
// wider records than heap pages (whose OLTP field updates are a few bytes).
var indexScheme = ipa.Scheme{N: 4, M: 20}

// IndexRow is one (workload, write path) measurement.
type IndexRow struct {
	Workload string
	Label    string
	Result   Result

	// IndexPageWrites is the number of dirty index-page evictions;
	// IndexOutOfPlace of them were physical whole-page programs and
	// IndexInPlace were delta appends onto the existing physical page.
	IndexPageWrites uint64
	IndexInPlace    uint64
	IndexOutOfPlace uint64
	IndexDeltas     uint64
	// DeltasPerMerge is how many delta appends one full index-page rewrite
	// (merge) amortises.
	DeltasPerMerge float64
	Throughput     float64
}

// IndexResult bundles the comparison rows in presentation order.
type IndexResult struct {
	title string
	Rows  []IndexRow
}

func makeIndexRow(workload, label string, res Result) IndexRow {
	s := res.Stats
	return IndexRow{
		Workload:        workload,
		Label:           label,
		Result:          res,
		IndexPageWrites: s.IndexPageWrites,
		IndexInPlace:    s.IndexInPlaceAppends,
		IndexOutOfPlace: s.IndexOutOfPlaceWrites,
		IndexDeltas:     s.IndexDeltaRecords,
		DeltasPerMerge:  s.IndexDeltasPerMerge(),
		Throughput:      s.Throughput(),
	}
}

// Index runs the primary-key index-maintenance comparison: each workload
// with traditional out-of-place index persistence and with IPA-native
// delta appends. TATP is the headline workload (its insert/delete
// call-forwarding ops churn the forwarding index in ~4 % of transactions);
// LinkBench adds a second, insert-heavier shape.
func Index(o Options) (IndexResult, error) {
	return indexMaintenance(o, "index",
		"Index maintenance: out-of-place vs IPA delta appends (primary-key entry pages)",
		"tatp", "linkbench")
}

// Secondary runs the same comparison on secondary-heavy workloads, so the
// KindIndex counters cover the secondary entry pages (plus the mostly idle
// primary key). "secchurn" is the isolation workload — its primary keys
// never change during the run, so it measures (almost) pure secondary
// churn; "tatpsec" (sub_nbr lookups + call-forwarding churn) and
// "linkbenchsec" (assoc-by-id2) add realistic shapes.
func Secondary(o Options) (IndexResult, error) {
	return indexMaintenance(o, "secondary",
		"Secondary-index maintenance: out-of-place vs IPA delta appends (entry pages)",
		"secchurn", "tatpsec", "linkbenchsec")
}

// indexMaintenance runs every workload out of place and with IPA, naming
// the runs prefix-oop-<workload> and prefix-ipa-<workload>.
func indexMaintenance(o Options, prefix, title string, workloads ...string) (IndexResult, error) {
	out := IndexResult{title: title}
	for _, w := range workloads {
		base := o.baseline(prefix+"-oop-"+w, w)
		base.Analytic = false
		baseRes, err := RunWithDB(base, nil)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, makeIndexRow(w, "out-of-place", baseRes))
		native := o.experiment(prefix+"-ipa-"+w, w, ipa.IPANativeFlash, ipa.PSLC)
		native.Analytic = false
		native.IndexScheme = indexScheme
		nativeRes, err := RunWithDB(native, nil)
		if err != nil {
			return out, err
		}
		out.Rows = append(out.Rows, makeIndexRow(w, fmt.Sprintf("IPA %s", indexScheme), nativeRes))
	}
	return out, nil
}

// Write renders the comparison; the workload column fits the longest name.
func (r IndexResult) Write(w io.Writer) {
	width := 0
	for _, row := range r.Rows {
		width = max(width, len(row.Workload)+1)
	}
	fmt.Fprintln(w, r.title)
	fmt.Fprintf(w, "%-*s %-12s %12s %12s %14s %12s %14s %10s\n",
		width, "workload", "write path", "idx evicts", "idx appends", "idx page wr", "idx deltas", "deltas/merge", "tps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-*s %-12s %12d %12d %14d %12d %14.1f %10.1f\n",
			width, row.Workload, row.Label, row.IndexPageWrites, row.IndexInPlace,
			row.IndexOutOfPlace, row.IndexDeltas, row.DeltasPerMerge, row.Throughput)
	}
}
