package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ipa"
	"ipa/internal/workload"
)

// ycsb-b-cached: YCSB-B over a table about half the size of the buffer
// pool, so every read hits the pool and the flash stack idles.
const (
	ycsbRecords     = 3776
	ycsbValueSize   = 120
	ycsbUpdateBytes = 8
	ycsbPatchOffset = ycsbValueSize - ycsbUpdateBytes
	// ycsbOpsPerRound fixes the length of one round, so the engine counters
	// of a round depend on the seed alone.
	ycsbOpsPerRound = 400000
	// ycsbWindow is the number of ops per measurement window.
	ycsbWindow = 20000
)

type ycsbEnv struct {
	db    *ipa.DB
	table *ipa.Table
	rows  [][]byte // the expected row of every key
}

func setupYCSB(seed int64) (*ycsbEnv, error) {
	db, err := ipa.Open(paperConfig())
	if err != nil {
		return nil, err
	}
	w, err := workload.NewYCSB(workload.YCSBConfig{
		Letter: 'B', Records: ycsbRecords, ValueSize: ycsbValueSize, UpdateBytes: ycsbUpdateBytes, Seed: seed,
	})
	if err == nil {
		err = w.Load(db)
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("ycsb load: %w", err)
	}
	db.ResetStats()
	return &ycsbEnv{db: db, table: w.Table(), rows: loadedRows(ycsbRecords, ycsbValueSize, w.Config().Seed)}, nil
}

// loadedRows returns the rows workload's loaders write: the row pattern
// seeded by key+seed, with the key in the first eight bytes.
func loadedRows(n, size int, seed int64) [][]byte {
	rows := make([][]byte, n)
	for k := range rows {
		rows[k] = make([]byte, size)
		fill(rows[k], int64(k)+seed)
		putKey(rows[k], int64(k))
	}
	return rows
}

func putKey(row []byte, k int64) {
	for i := 0; i < 8; i++ {
		row[i] = byte(k >> (8 * i))
	}
}

// scrambleKey spreads a zipfian rank over the keyspace with FNV-1a, as
// workload.YCSB does, so the hot keys do not share pages.
func scrambleKey(rank, n int64) int64 {
	h := uint64(0xcbf29ce484222325)
	v := uint64(rank)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return int64(h % uint64(n))
}

func runYCSB(cfg runConfig, p *pass) error {
	for p.rounds == 0 || p.wall < cfg.seconds {
		if err := ycsbRound(cfg, p); err != nil {
			return fmt.Errorf("ycsb-b-cached round %d: %w", p.rounds, err)
		}
	}
	return nil
}

func ycsbRound(cfg runConfig, p *pass) error {
	e, d, err := timed(func() (*ycsbEnv, error) { return setupYCSB(cfg.seed) })
	if err != nil {
		return err
	}
	p.setup = append(p.setup, d)
	db, table := e.db, e.table
	mix, err := workload.YCSBMixFor('B')
	if err != nil {
		return err
	}
	zipf := workload.NewZipfian(ycsbRecords, workload.YCSBTheta)
	r := rand.New(rand.NewSource(cfg.seed))
	tr := p.tracer(cfg, 64)
	var g gauges
	var updates uint64
	patch := make([]byte, ycsbUpdateBytes)
	before := db.Stats()

	start := time.Now()
	m := newMeter(p, ycsbWindow)
	for i := 1; i <= ycsbOpsPerRound; i++ {
		key := scrambleKey(zipf.Next(r), ycsbRecords)
		read := r.Intn(100) < mix.Read
		if !read {
			fill(patch, r.Int63())
		}
		tr.beginOp()
		opStart := time.Now()
		p.attempted++
		if read {
			s := tr.start(spanTableGet)
			row, err := table.Get(key)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("read %d: %w", key, err)
			}
			if !bytes.Equal(row, e.rows[key]) {
				return fmt.Errorf("read %d returned a row that is not the key's last acknowledged row", key)
			}
		} else {
			s := tr.start(spanBegin)
			tx := db.Begin()
			tr.end(s)
			s = tr.start(spanTxUpdateAt)
			err := tx.UpdateAt(table, key, ycsbPatchOffset, patch)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("update %d: %w", key, abort(tx, err))
			}
			s = tr.start(spanTxCommit)
			err = tx.Commit()
			tr.end(s)
			if err != nil {
				return fmt.Errorf("commit update %d: %w", key, err)
			}
			copy(e.rows[key][ycsbPatchOffset:], patch)
			updates++
		}
		m.op(time.Since(opStart))
		tr.endOp()
		if i%1024 == 0 {
			g.sample(db.Stats(), db.WAL().LiveBytes())
		}
	}
	p.wall += time.Since(start)
	p.ops += ycsbOpsPerRound
	after := db.Stats()
	g.sample(after, db.WAL().LiveBytes())
	p.virtual += after.Elapsed
	p.heapMiB = append(p.heapMiB, liveHeapMiB())

	db2, err := p.reopen(db.Crash(), tr)
	if err != nil {
		return err
	}
	defer db2.Close()
	g.recovery = db2.RecoveryStats()
	t2, ok := db2.Table("ycsb")
	if !ok {
		return fmt.Errorf("after reopen: table ycsb missing")
	}
	for k, want := range e.rows {
		row, err := t2.Get(int64(k))
		if err != nil {
			return fmt.Errorf("after reopen: key %d: %w", k, err)
		}
		if !bytes.Equal(row, want) {
			return fmt.Errorf("after reopen: key %d lost its last acknowledged patch", k)
		}
	}
	if err := db2.VerifyIntegrity(); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if err := reconcile(after); err != nil {
		return err
	}
	return p.addRound(layerMetrics(window{before: before, after: after, ops: ycsbOpsPerRound,
		changedBytes: updates * ycsbUpdateBytes, pageSize: db.Config().PageSize}, &g), true)
}
