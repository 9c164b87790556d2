package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName is one of the fixed spans the benchmark records around its own
// calls into the public API. Spans inside the engine are out of scope: the
// benchmark measures each layer from outside.
type spanName uint8

const (
	spanOp spanName = iota // one client operation: the parent of every other span
	spanBegin
	spanTxGet
	spanTxUpdateAt
	spanTxInsert
	spanTxCommit
	spanTableGet
	spanCheckpoint
	spanReopen
	spanBatch
	numSpans
)

var spanNames = [numSpans]string{
	"op",
	"ipa.Begin",
	"ipa.Tx.Get",
	"ipa.Tx.UpdateAt",
	"ipa.Tx.Insert",
	"ipa.Tx.Commit",
	"ipa.Table.Get",
	"ipa.DB.Checkpoint",
	"ipa.Reopen",
	"ipaclient.Batch",
}

// span is one recorded interval. Children of an op never nest further and
// never overlap, because the benchmark issues its calls one after another.
type span struct {
	op         uint64
	parent     int32 // index of the op span in tracer.spans; -1 for an op
	name       spanName
	start, end int64 // nanoseconds since the tracer's epoch
	weight     int64 // ops an op span stands for: the sampling interval, or 1
}

// tracer keeps the spans of one client goroutine in memory until the run
// ends. A nil *tracer records nothing, which is how untraced passes run.
type tracer struct {
	epoch  time.Time
	every  uint64 // record one op in every `every`
	spans  []span
	cur    int32 // index of the open op span; -1 while the current op is unsampled
	nextOp uint64
}

func newTracer(epoch time.Time, every uint64) *tracer {
	return &tracer{epoch: epoch, every: every, cur: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the next op span, if this op is sampled.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.nextOp++
	t.cur = -1
	if t.nextOp%t.every != 0 {
		return
	}
	t.open(int64(t.every))
}

// beginAlwaysOp opens an op span regardless of sampling: a rare operation
// (recovery) would otherwise be missed. It stands for itself alone.
func (t *tracer) beginAlwaysOp() {
	if t == nil {
		return
	}
	t.nextOp++
	t.open(1)
}

func (t *tracer) open(weight int64) {
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.nextOp, parent: -1, name: spanOp, start: t.now(), weight: weight})
}

func (t *tracer) endOp() {
	if t == nil || t.cur < 0 {
		return
	}
	t.spans[t.cur].end = t.now()
	t.cur = -1
}

// start opens a child span of the current op and returns its handle for
// end; it returns -1 when nothing is recorded.
func (t *tracer) start(name spanName) int32 {
	if t == nil || t.cur < 0 {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.spans[t.cur].op, parent: t.cur, name: name, start: t.now()})
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// spanSummary is the self time per span name over all ops, estimated from
// the recorded ones: each recorded op counts as many times as its weight.
type spanSummary struct {
	selfNS  [numSpans]int64
	count   [numSpans]int64
	opWall  int64 // summed wall time of the ops
	opCount int64 // recorded op spans
}

// summarize computes self times: an op's self time is its duration minus
// its children's. It fails if a child lies outside its op or overlaps a
// sibling, or if the self times do not add up to the op wall time — the
// trace's reconciliation identity.
func summarize(tracers ...*tracer) (spanSummary, error) {
	var s spanSummary
	for _, t := range tracers {
		if t == nil {
			continue
		}
		// Children follow their op in the slice, in start order.
		for i := 0; i < len(t.spans); {
			op := t.spans[i]
			if op.parent != -1 {
				return s, fmt.Errorf("trace: span %d (%s) has no op", i, spanNames[op.name])
			}
			w := op.weight
			self := op.end - op.start
			prevEnd := op.start
			j := i + 1
			for ; j < len(t.spans) && t.spans[j].parent == int32(i); j++ {
				c := t.spans[j]
				if c.start < prevEnd || c.end < c.start || c.end > op.end {
					return s, fmt.Errorf("trace: op %d: child %s [%d,%d] outside op [%d,%d] or overlapping",
						op.op, spanNames[c.name], c.start, c.end, op.start, op.end)
				}
				prevEnd = c.end
				d := c.end - c.start
				self -= d
				s.selfNS[c.name] += w * d
				s.count[c.name] += w
			}
			s.selfNS[spanOp] += w * self
			s.count[spanOp] += w
			s.opWall += w * (op.end - op.start)
			s.opCount++
			i = j
		}
	}
	var sum int64
	for _, v := range s.selfNS {
		sum += v
	}
	if sum != s.opWall {
		return s, fmt.Errorf("trace: self times sum to %d ns, op wall time is %d ns", sum, s.opWall)
	}
	return s, nil
}

// metrics reports span.<name>.self_us_mean and span.<name>.share of op time
// for every span name.
func (s spanSummary) metrics(m map[string]float64) {
	for n := spanName(0); n < numSpans; n++ {
		mean, share := 0.0, 0.0
		if s.count[n] > 0 {
			mean = float64(s.selfNS[n]) / float64(s.count[n]) / 1e3
		}
		if s.opWall > 0 {
			share = float64(s.selfNS[n]) / float64(s.opWall)
		}
		m["span."+spanNames[n]+".self_us_mean"] = mean
		m["span."+spanNames[n]+".share"] = share
	}
}

// writeTrace writes every recorded span as CSV: op, parent op span index,
// name, start and end in nanoseconds since the run's epoch.
func writeTrace(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,op,parent,name,start_ns,end_ns")
	for k, t := range tracers {
		if t == nil {
			continue
		}
		for _, sp := range t.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", k, sp.op, sp.parent, spanNames[sp.name], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
