package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"ipa"
	"ipa/internal/bench"
	"ipa/internal/workload"
)

// tpcb-ltm: TPC-B at scale 4 on the paper's device, with a data set larger
// than the buffer pool. The constants mirror workload.TPCB's layout.
const (
	tpcbBranches          = 4
	tpcbTellersPerBranch  = 10
	tpcbAccountsPerBranch = 10000
	tpcbBalanceOffset     = 8
	tpcbHistorySize       = 50

	// tpcbTxns is the fixed length of one round. GC starts after about
	// 10k transactions on this device; the round runs well past it.
	tpcbTxns = 20000
	// tpcbCheckpointBytes is ipaserver's default checkpoint trigger; the
	// benchmark checkpoints synchronously, so the run stays deterministic.
	tpcbCheckpointBytes = 4 << 20
	// tpcbWindow is the number of transactions per measurement window:
	// short, so a stall of the machine spoils few windows.
	tpcbWindow = 250
)

// paperConfig is the paper's configuration on bench.DefaultProfile: native
// IPA, 2×4 scheme, pSLC, one chip, no background goroutines.
func paperConfig() ipa.Config {
	p := bench.DefaultProfile
	return ipa.Config{
		PageSize:        p.PageSize,
		Blocks:          p.Blocks,
		PagesPerBlock:   p.PagesPerBlock,
		BufferPoolPages: p.BufferPoolPages,
		Chips:           1,
		WriteMode:       ipa.IPANativeFlash,
		Scheme:          ipa.Scheme{N: 2, M: 4},
		FlashMode:       ipa.PSLC,
	}
}

type tpcbEnv struct {
	db                          *ipa.DB
	accounts, tellers, branches *ipa.Table
	history                     *ipa.Table
	r                           *rand.Rand
	nextHistory                 int64
	deltaSum                    int64 // sum of the deltas of acknowledged transactions
}

func setupTPCB(seed int64) (*tpcbEnv, error) {
	db, err := ipa.Open(paperConfig())
	if err != nil {
		return nil, err
	}
	if err := workload.NewTPCB(workload.TPCBConfig{Branches: tpcbBranches, Seed: seed}).Load(db); err != nil {
		db.Close()
		return nil, fmt.Errorf("tpcb load: %w", err)
	}
	e := &tpcbEnv{db: db, r: rand.New(rand.NewSource(seed))}
	e.tables(db)
	db.ResetStats()
	return e, nil
}

func (e *tpcbEnv) tables(db *ipa.DB) {
	e.accounts, _ = db.Table("tpcb_accounts")
	e.tellers, _ = db.Table("tpcb_tellers")
	e.branches, _ = db.Table("tpcb_branches")
	e.history, _ = db.Table("tpcb_history")
}

// txn runs one TPC-B transaction, issuing each call itself so it can be
// wrapped in a span. It draws from the generator in the same order as
// workload.TPCB.RunOne and writes the same rows (a test pins the two to
// identical engine statistics).
func (e *tpcbEnv) txn(tr *tracer) error {
	r := e.r
	branch := r.Int63n(tpcbBranches)
	teller := branch*tpcbTellersPerBranch + r.Int63n(tpcbTellersPerBranch)
	var account int64
	if r.Intn(100) < 85 {
		account = branch*tpcbAccountsPerBranch + r.Int63n(tpcbAccountsPerBranch)
	} else {
		account = r.Int63n(tpcbBranches * tpcbAccountsPerBranch)
	}
	delta := int64(r.Intn(1999999) - 999999)

	s := tr.start(spanBegin)
	tx := e.db.Begin()
	tr.end(s)
	for _, u := range []struct {
		t   *ipa.Table
		key int64
	}{{e.accounts, account}, {e.tellers, teller}, {e.branches, branch}} {
		s = tr.start(spanTxGet)
		row, err := tx.Get(u.t, u.key)
		tr.end(s)
		if err != nil {
			return abort(tx, err)
		}
		bal := int64(binary.LittleEndian.Uint64(row[tpcbBalanceOffset:])) + delta
		s = tr.start(spanTxUpdateAt)
		err = tx.UpdateAt(u.t, u.key, tpcbBalanceOffset, binary.LittleEndian.AppendUint64(nil, uint64(bal)))
		tr.end(s)
		if err != nil {
			return abort(tx, err)
		}
	}
	e.nextHistory++
	h := make([]byte, tpcbHistorySize)
	fill(h, e.nextHistory)
	binary.LittleEndian.PutUint64(h[0:], uint64(e.nextHistory))
	binary.LittleEndian.PutUint64(h[8:], uint64(account))
	binary.LittleEndian.PutUint64(h[16:], uint64(delta))
	s = tr.start(spanTxInsert)
	err := tx.Insert(e.history, e.nextHistory, h)
	tr.end(s)
	if err != nil {
		return abort(tx, err)
	}
	s = tr.start(spanTxCommit)
	err = tx.Commit()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	e.deltaSum += delta
	return nil
}

func abort(tx *ipa.Tx, err error) error {
	if aerr := tx.Abort(); aerr != nil {
		return fmt.Errorf("%w (abort: %v)", err, aerr)
	}
	return err
}

// tpcbChangedBytes is what one transaction changes: three 8-byte balances
// and one history row.
const tpcbChangedBytes = 3*8 + tpcbHistorySize

func runTPCB(cfg runConfig, p *pass) error {
	for p.rounds == 0 || p.wall < cfg.seconds {
		if err := tpcbRound(cfg, p); err != nil {
			return fmt.Errorf("tpcb-ltm round %d: %w", p.rounds, err)
		}
	}
	return nil
}

func tpcbRound(cfg runConfig, p *pass) error {
	e, d, err := timed(func() (*tpcbEnv, error) { return setupTPCB(cfg.seed) })
	if err != nil {
		return err
	}
	p.setup = append(p.setup, d)
	db := e.db
	tr := p.tracer(cfg, 1)
	var g gauges
	before := db.Stats()
	var ckptAt uint64

	start := time.Now()
	m := newMeter(p, tpcbWindow)
	for i := 1; i <= tpcbTxns; i++ {
		tr.beginOp()
		opStart := time.Now()
		p.attempted++
		if err := e.txn(tr); err != nil {
			return fmt.Errorf("txn %d: %w", i, err)
		}
		if i%1024 == 0 {
			g.sample(db.Stats(), db.WAL().LiveBytes())
		}
		if db.WAL().BytesWritten()-ckptAt >= tpcbCheckpointBytes {
			g.sample(db.Stats(), db.WAL().LiveBytes())
			s := tr.start(spanCheckpoint)
			c0 := time.Now()
			res, err := db.Checkpoint()
			g.ckptWall = append(g.ckptWall, float64(time.Since(c0))/float64(time.Millisecond))
			tr.end(s)
			if err != nil {
				return fmt.Errorf("checkpoint after txn %d: %w", i, err)
			}
			g.ckptPages = append(g.ckptPages, res.PagesFlushed)
			ckptAt = db.WAL().BytesWritten()
		}
		m.op(time.Since(opStart))
		tr.endOp()
	}
	p.wall += time.Since(start)
	p.ops += tpcbTxns
	after := db.Stats()
	g.sample(after, db.WAL().LiveBytes())
	p.virtual += after.Elapsed
	p.heapMiB = append(p.heapMiB, liveHeapMiB())

	// Before the crash: tellers and branches (two hot pages, so the check
	// does not disturb what recovery finds) and the history row count.
	if err := e.checkBalances(false, tpcbTxns); err != nil {
		return fmt.Errorf("before crash: %w", err)
	}
	db2, err := p.reopen(db.Crash(), tr)
	if err != nil {
		return err
	}
	defer db2.Close()
	g.recovery = db2.RecoveryStats()
	e.db = db2
	e.tables(db2)
	if err := e.checkBalances(true, tpcbTxns); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if err := db2.VerifyIntegrity(); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	if err := reconcile(after); err != nil {
		return err
	}
	return p.addRound(layerMetrics(window{before: before, after: after, ops: tpcbTxns,
		changedBytes: tpcbTxns * tpcbChangedBytes, pageSize: db.Config().PageSize}, &g), true)
}

// checkBalances checks TPC-B's consistency condition. Every table starts
// with one common balance B0, so after the run each table's balance sum is
// rows×B0 plus the sum of the acknowledged deltas, and the history rows
// carry exactly those deltas. With full set, accounts and history are read
// too and the history must hold one row per acknowledged commit.
func (e *tpcbEnv) checkBalances(full bool, acked int) error {
	sum := func(t *ipa.Table, n int64) (int64, error) {
		var s int64
		for k := int64(0); k < n; k++ {
			row, err := t.Get(k)
			if err != nil {
				return 0, fmt.Errorf("%s key %d: %w", t.Name(), k, err)
			}
			s += int64(binary.LittleEndian.Uint64(row[tpcbBalanceOffset:]))
		}
		return s, nil
	}
	type tab struct {
		t *ipa.Table
		n int64
	}
	tabs := []tab{{e.branches, tpcbBranches}, {e.tellers, tpcbBranches * tpcbTellersPerBranch}}
	if full {
		tabs = append(tabs, tab{e.accounts, tpcbBranches * tpcbAccountsPerBranch})
	}
	var b0 int64
	for i, tb := range tabs {
		s, err := sum(tb.t, tb.n)
		if err != nil {
			return err
		}
		if i == 0 {
			if (s-e.deltaSum)%tb.n != 0 {
				return fmt.Errorf("branch balances sum to %d: not rows×B0 + acknowledged deltas %d", s, e.deltaSum)
			}
			b0 = (s - e.deltaSum) / tb.n
		} else if s != tb.n*b0+e.deltaSum {
			return fmt.Errorf("%s balances sum to %d, want %d×%d + %d", tb.t.Name(), s, tb.n, b0, e.deltaSum)
		}
	}
	if !full {
		if n := e.history.Count(); n != uint64(acked) {
			return fmt.Errorf("history holds %d rows, %d commits acknowledged", n, acked)
		}
		return nil
	}
	var rows, hist int64
	err := e.history.ScanRange(1, int64(acked)+2, func(_ int64, row []byte) bool {
		rows++
		hist += int64(binary.LittleEndian.Uint64(row[16:]))
		return true
	})
	if err != nil {
		return fmt.Errorf("history scan: %w", err)
	}
	if rows != int64(acked) || hist != e.deltaSum {
		return fmt.Errorf("history holds %d rows with deltas %d, want %d rows with %d", rows, hist, acked, e.deltaSum)
	}
	return nil
}

// reconcile asserts identities that tie the storage, FTL and flash
// counters together: every dirty eviction is either an in-place append or
// an out-of-place write, every FTL page write comes from one, every delta
// write from an append, and every flash page program is a host write or a
// GC migration.
func reconcile(s ipa.Stats) error {
	for _, c := range []struct {
		what string
		a, b uint64
	}{
		{"DirtyEvictions = IPAAppendEvictions + OutOfPlaceEvictions", s.DirtyEvictions, s.IPAAppendEvictions + s.OutOfPlaceEvictions},
		{"HostWrites = OutOfPlaceWrites", s.HostWrites, s.OutOfPlaceWrites},
		{"HostWriteDeltas = InPlaceAppends", s.HostWriteDeltas, s.InPlaceAppends},
		{"FlashPagePrograms = OutOfPlaceWrites + GCMigrations", s.FlashPagePrograms, s.OutOfPlaceWrites + s.GCMigrations},
	} {
		if c.a != c.b {
			return fmt.Errorf("layer reconciliation: %s fails: %d != %d", c.what, c.a, c.b)
		}
	}
	return nil
}

// fill is workload's deterministic row pattern (an xorshift stream seeded
// by the key), so rows written here match the rows the loaders write.
func fill(b []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte(x * 0x2545F4914F6CDD1D >> 56)
	}
}
