package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ipa"
)

// Read-skew ladder shape: transactions of readMixOpsPerTxn point
// operations, readMixHotOpPct percent of them on the first readMixHotKeys
// keys. The hot set is where the two read modes diverge — under 2PL even
// two readers of the same hot key conflict (locks are exclusive), while
// snapshot readers never do.
const (
	readMixOpsPerTxn = 8
	readMixHotKeys   = 16
	readMixHotOpPct  = 40
)

// readMixPcts is the ladder of read percentages.
var readMixPcts = []int{50, 90, 99}

// ReadMixRow is the outcome of one (read percentage, read mode) cell.
type ReadMixRow struct {
	ReadPct   int
	Locked    bool // true = GetForUpdate baseline, false = snapshot reads
	Committed uint64
	Retries   uint64 // transactions re-run after ErrConflict
	Wall      time.Duration
	OpsPerSec float64

	// Lock-table pressure and MVCC activity for the run.
	LockAcquisitions uint64
	LockConflicts    uint64
	SnapshotReads    uint64
	VersionReads     uint64

	Stats ipa.Stats
}

// ReadMixResult bundles the ladder; rows come in (snapshot, locked) pairs
// per read percentage.
type ReadMixResult struct {
	Options Options
	Rows    []ReadMixRow
}

// ReadMix runs the read-skew ladder: o.Threads goroutines run
// transactions over one SHARED keyspace of o.Tuples rows (no partitioning
// — readers and writers collide on purpose), with the read fraction swept
// across the ladder. Every mix runs twice:
//
//   - snapshot: reads go through Tx.Get — lock-free MVCC snapshot reads;
//   - locked:   reads go through Tx.GetForUpdate — the strict-2PL baseline
//     where every read takes a record lock and conflicts abort.
//
// The gap between the two rows of a mix is the benefit of multi-version
// readers; it widens with the read share because under 2PL read locks are
// what most transactions collide on.
func ReadMix(o Options) (ReadMixResult, error) {
	out := ReadMixResult{Options: o}
	for _, pct := range readMixPcts {
		for _, locked := range []bool{false, true} {
			row, err := readMixCell(o, pct, locked)
			if err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// readMixCell measures one cell on a fresh database. The log device is
// fast (20µs virtual, 5µs wall per flush, vs the concurrency-scaling
// scenario's 100µs/50µs): this ladder is about lock contention, not group
// commit, so the flush must not dominate the per-transaction cost.
func readMixCell(o Options, readPct int, locked bool) (ReadMixRow, error) {
	cfg := ladderConfig(o)
	cfg.LogFlushLatency = 20 * time.Microsecond
	cfg.LogFlushWallLatency = 5 * time.Microsecond
	hotKeys := min(readMixHotKeys, o.Tuples)
	run, err := loadAndRun(cfg, o.Tuples, o.Threads, o.Ops, func(db *ipa.DB, tbl *ipa.Table, w int) func(int) error {
		r := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
		patch := []byte{byte(w), 0, 0}
		return func(int) error {
			return mixTxn(db, tbl, r, o.Tuples, hotKeys, readPct, locked, patch)
		}
	})
	if err != nil {
		return ReadMixRow{}, fmt.Errorf("bench: readmix: %w", err)
	}
	s := run.Stats
	row := ReadMixRow{
		ReadPct:          readPct,
		Locked:           locked,
		Committed:        s.CommittedTxns,
		Retries:          run.Retries,
		Wall:             run.Wall,
		LockAcquisitions: s.LockAcquisitions,
		LockConflicts:    s.LockConflicts,
		SnapshotReads:    s.SnapshotReads,
		VersionReads:     s.VersionReads,
		Stats:            s,
	}
	if run.Wall > 0 {
		row.OpsPerSec = float64(s.CommittedTxns) / run.Wall.Seconds()
	}
	return row, nil
}

// mixTxn executes one transaction of the mix: readMixOpsPerTxn point
// operations on random keys of the shared keyspace, each a read with
// probability readPct%.
func mixTxn(db *ipa.DB, tbl *ipa.Table, r *rand.Rand, tuples, hotKeys, readPct int, locked bool, patch []byte) error {
	tx := db.Begin()
	for j := 0; j < readMixOpsPerTxn; j++ {
		var key int64
		if r.Intn(100) < readMixHotOpPct {
			key = int64(r.Intn(hotKeys))
		} else {
			key = int64(r.Intn(tuples))
		}
		if r.Intn(100) < readPct {
			var err error
			if locked {
				_, err = tx.GetForUpdate(tbl, key)
			} else {
				_, err = tx.Get(tbl, key)
			}
			if err != nil {
				_ = tx.Abort()
				return err
			}
			continue
		}
		if _, err := tx.GetForUpdate(tbl, key); err != nil {
			_ = tx.Abort()
			return err
		}
		if err := tx.UpdateAt(tbl, key, 8, patch); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// Write renders the read-skew table.
func (r ReadMixResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Read-skew ladder: %d goroutines, %d-op txns over %d shared keys, %d%% of ops on %d hot keys (snapshot = MVCC Tx.Get, locked = 2PL GetForUpdate)\n",
		r.Options.Threads, readMixOpsPerTxn, r.Options.Tuples, readMixHotOpPct, min(readMixHotKeys, r.Options.Tuples))
	fmt.Fprintf(w, "%-6s %-9s %10s %9s %12s %9s %11s %11s %10s %9s\n",
		"read%", "reads", "committed", "retries", "wall", "ops/s", "lock acq", "lock confl", "snapReads", "verReads")
	var prev float64
	for _, row := range r.Rows {
		mode := "snapshot"
		if row.Locked {
			mode = "locked"
		}
		fmt.Fprintf(w, "%-6d %-9s %10d %9d %12s %9.0f %11d %11d %10d %9d",
			row.ReadPct, mode, row.Committed, row.Retries, row.Wall.Round(time.Millisecond),
			row.OpsPerSec, row.LockAcquisitions, row.LockConflicts, row.SnapshotReads, row.VersionReads)
		if row.Locked && prev > 0 && row.OpsPerSec > 0 {
			fmt.Fprintf(w, "  (snapshot %+.0f%%)", (prev/row.OpsPerSec-1)*100)
		}
		fmt.Fprintln(w)
		prev = row.OpsPerSec
	}
}
