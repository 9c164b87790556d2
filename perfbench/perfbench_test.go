package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ipa"
	"ipa/internal/workload"
)

// The metric tables the program prints must be the ones BENCHMARK.json
// declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []metric
		printed  []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var got []metric
		for _, s := range c.printed {
			got = append(got, metric{s.name, s.unit, s.better})
		}
		if !reflect.DeepEqual(got, c.declared) {
			t.Errorf("%s: program prints %v\nBENCHMARK.json declares %v", c.what, got, c.declared)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
}

// The benchmark issues TPC-B's calls itself (to wrap them in spans); its
// transaction body must do exactly what workload.TPCB.RunOne does.
func TestTPCBBodyMatchesWorkload(t *testing.T) {
	const seed, txns = 5, 1500
	e, err := setupTPCB(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer e.db.Close()
	for i := 0; i < txns; i++ {
		if err := e.txn(nil); err != nil {
			t.Fatal(err)
		}
	}

	db, err := ipa.Open(paperConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	w := workload.NewTPCB(workload.TPCBConfig{Branches: tpcbBranches, Seed: seed})
	if err := w.Load(db); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := workload.Run(db, w, workload.RunOptions{MaxOps: txns, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if got, want := e.db.Stats(), db.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("benchmark body stats:\n%v\nworkload.TPCB stats:\n%v", got, want)
	}
}

// With one seed, every engine counter and the virtual clock of the
// in-process workloads repeat exactly from run to run.
func TestInProcessWorkloadsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full rounds of each in-process workload")
	}
	for _, name := range []string{"tpcb-ltm", "ycsb-b-cached"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]pass
			for i := range runs {
				if err := workloads[name].run(runConfig{seed: 3, epoch: time.Now()}, &runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			a, b := runs[0], runs[1]
			if a.ops != b.ops || a.virtual != b.virtual {
				t.Errorf("ops %d vs %d, virtual time %v vs %v", a.ops, b.ops, a.virtual, b.virtual)
			}
			la, lb := a.layer(), b.layer()
			for k, v := range la {
				if !inexact[k] && v != lb[k] {
					t.Errorf("%s: %v vs %v", k, v, lb[k])
				}
			}
		})
	}
}

// Self times are the op's duration minus its children's, and they add up
// to the op wall time; sampled ops count for the ops they stand for.
func TestSpanSelfTimes(t *testing.T) {
	tr := &tracer{every: 2, cur: -1}
	tr.spans = []span{
		{op: 2, parent: -1, name: spanOp, start: 0, end: 100, weight: 2},
		{op: 2, parent: 0, name: spanBegin, start: 10, end: 20},
		{op: 2, parent: 0, name: spanTxCommit, start: 30, end: 80},
		{op: 3, parent: -1, name: spanOp, start: 200, end: 260, weight: 1},
		{op: 3, parent: 3, name: spanReopen, start: 200, end: 250},
	}
	s, err := summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.opWall != 2*100+60 || s.selfNS[spanOp] != 2*40+10 || s.selfNS[spanTxCommit] != 2*50 || s.selfNS[spanReopen] != 50 {
		t.Errorf("summary %+v", s)
	}
	m := map[string]float64{}
	s.metrics(m)
	if m["span.ipa.Tx.Commit.self_us_mean"] != 0.05 || m["span.op.share"] != 90.0/260 {
		t.Errorf("metrics %v", m)
	}

	tr.spans[2].start = 15 // overlaps ipa.Begin
	if _, err := summarize(tr); err == nil {
		t.Error("overlapping children accepted")
	}
}

// The histogram's quantiles stay within a bucket of the exact ones.
func TestHistQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := time.Duration(r.ExpFloat64() * 50000)
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		exact := quantileOf(xs, q)
		if got := h.quantile(q); got < exact*0.97 || got > exact*1.03 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
}

func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}
