package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
)

// The goroutine-ladder experiments (concurrent, readmix, chips) update
// rows of ladderTupleSize bytes through IPA native Flash on pSLC.
const ladderTupleSize = 100

// ladderConfig is the engine configuration of the ladder experiments.
func ladderConfig(o Options) ipa.Config {
	e := o.experiment("", "", ipa.IPANativeFlash, ipa.PSLC)
	e.Analytic = false
	return e.config()
}

// loadedRun is the measured phase of one ladder run.
type loadedRun struct {
	Stats   ipa.Stats
	Retries uint64        // transaction attempts that failed with ErrConflict
	Wall    time.Duration // wall-clock time of the workers
	Virtual time.Duration // device time of the workers and the final flush
}

// loadAndRun opens a database with cfg, loads tuples rows into one table,
// flushes them and resets the counters; then goroutines workers commit ops
// transactions between them (split evenly, the first ops%goroutines
// workers one more). Worker w runs its i-th transaction with
// body(db, tbl, w)(i), retrying it while it fails with ErrConflict.
func loadAndRun(cfg ipa.Config, tuples, goroutines, ops int,
	body func(db *ipa.DB, tbl *ipa.Table, w int) func(i int) error) (loadedRun, error) {
	if goroutines <= 0 || tuples <= 0 {
		return loadedRun{}, fmt.Errorf("bench: need goroutines and tuples, got %d and %d", goroutines, tuples)
	}
	db, err := ipa.Open(cfg)
	if err != nil {
		return loadedRun{}, fmt.Errorf("bench: open: %w", err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("bench", ladderTupleSize)
	if err != nil {
		return loadedRun{}, err
	}
	row := make([]byte, ladderTupleSize)
	for k := int64(0); k < int64(tuples); k++ {
		if err := tbl.Insert(k, row); err != nil {
			return loadedRun{}, fmt.Errorf("bench: load: %w", err)
		}
	}
	if err := db.FlushAll(); err != nil {
		return loadedRun{}, err
	}
	db.ResetStats()
	virtualStart := db.Now()

	var retries atomic.Uint64
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < goroutines; w++ {
		n := ops / goroutines
		if w < ops%goroutines {
			n++
		}
		attempt := body(db, tbl, w)
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for {
					err := attempt(i)
					if err == nil {
						break
					}
					if errors.Is(err, ipa.ErrConflict) {
						retries.Add(1)
						continue
					}
					errs <- fmt.Errorf("bench: worker %d: %w", w, err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return loadedRun{}, err
	}
	if err := db.FlushAll(); err != nil {
		return loadedRun{}, err
	}
	return loadedRun{Stats: db.Stats(), Retries: retries.Load(), Wall: wall, Virtual: db.Now() - virtualStart}, nil
}

// updateTxn commits one transaction that patches key's tuple at offset 8.
func updateTxn(db *ipa.DB, tbl *ipa.Table, key int64, patch []byte) error {
	tx := db.Begin()
	if err := tx.UpdateAt(tbl, key, 8, patch); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// stridedUpdates is the ladder body of the concurrent and chips
// experiments: each worker owns a disjoint slice of the keys and strides
// through it by step, so consecutive transactions land on different pages
// (different buffer-pool shards, and with pages striped across chips,
// different chips).
func stridedUpdates(tuples, goroutines, step int) func(db *ipa.DB, tbl *ipa.Table, w int) func(i int) error {
	return func(db *ipa.DB, tbl *ipa.Table, w int) func(i int) error {
		keysPerWorker := max(1, tuples/goroutines)
		base := int64(w * keysPerWorker)
		return func(i int) error {
			key := base + int64(i*step)%int64(keysPerWorker)
			return updateTxn(db, tbl, key, []byte{byte(i), byte(i >> 8), byte(w)})
		}
	}
}

// ConcurrentRow is the outcome of one worker count.
type ConcurrentRow struct {
	Goroutines int
	Committed  uint64
	Conflicts  uint64 // transactions retried after a lock conflict
	Wall       time.Duration
	OpsPerSec  float64 // committed transactions per wall-clock second
	Speedup    float64 // relative to the first row of the ladder

	// Group-commit effectiveness.
	WALFlushes      uint64
	CommitsPerFlush float64
	MaxCommitBatch  uint64

	Stats ipa.Stats
}

// ConcurrentResult bundles the whole goroutine ladder.
type ConcurrentResult struct {
	Options Options
	Rows    []ConcurrentRow
}

// Concurrent runs the concurrency-scaling scenario: o.Ops update
// transactions over o.Tuples rows, applied by each worker count of the
// ladder (or o.Threads) against one database, reporting the aggregate
// wall-clock throughput. It exercises the sharded buffer pool (goroutines
// on different pages take different shard latches) and the group-commit
// WAL (concurrent commits share log flushes). The log device costs 100µs
// of virtual time per flush batch, so the group-commit saving shows in the
// virtual clock, and the flush leader waits 50µs of real time, which is
// what lets concurrent commits pile up into shared batches.
func Concurrent(o Options) (ConcurrentResult, error) {
	cfg := ladderConfig(o)
	cfg.LogFlushLatency = 100 * time.Microsecond
	cfg.LogFlushWallLatency = 50 * time.Microsecond
	out := ConcurrentResult{Options: o}
	for _, g := range ladderOr(o.Threads) {
		run, err := loadAndRun(cfg, o.Tuples, g, o.Ops, stridedUpdates(o.Tuples, g, 17))
		if err != nil {
			return out, fmt.Errorf("bench: concurrent: %w", err)
		}
		s := run.Stats
		row := ConcurrentRow{
			Goroutines:      g,
			Committed:       s.CommittedTxns,
			Conflicts:       run.Retries,
			Wall:            run.Wall,
			WALFlushes:      s.WALFlushes,
			CommitsPerFlush: s.CommitsPerFlush(),
			MaxCommitBatch:  s.WALMaxCommitBatch,
			Stats:           s,
			Speedup:         1,
		}
		if run.Wall > 0 {
			row.OpsPerSec = float64(s.CommittedTxns) / run.Wall.Seconds()
		}
		if len(out.Rows) > 0 && out.Rows[0].OpsPerSec > 0 {
			row.Speedup = row.OpsPerSec / out.Rows[0].OpsPerSec
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Write renders the scaling table.
func (r ConcurrentResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Concurrency scaling: %s, %d ops over disjoint keys (sharded pool + group-commit WAL)\n",
		ipa.IPANativeFlash, r.Options.Ops)
	fmt.Fprintf(w, "%-11s %10s %10s %12s %9s %12s %14s %9s\n",
		"goroutines", "committed", "conflicts", "wall", "ops/s", "wal flushes", "commits/flush", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11d %10d %10d %12s %9.0f %12d %14.2f %8.2fx\n",
			row.Goroutines, row.Committed, row.Conflicts, row.Wall.Round(time.Millisecond),
			row.OpsPerSec, row.WALFlushes, row.CommitsPerFlush, row.Speedup)
	}
}
