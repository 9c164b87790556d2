package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ipa"
	"ipa/internal/proto"
	"ipa/internal/server"
	"ipa/internal/workload"
	"ipa/ipaclient"
)

// wire-mixed: ipaserver's defaults on loopback, two pipelining clients,
// each owning half of the keys.
const (
	wireKeys        = 4096
	wireValueSize   = 200
	wirePatchBytes  = 8
	wirePatchOffset = wireValueSize - wirePatchBytes
	wireConns       = 2
	wireBatch       = 16
	wireUpdatePct   = 80
	wireTable       = "kv"
	// wireCheckpointBytes is ipaserver's default background checkpoint
	// trigger.
	wireCheckpointBytes = 4 << 20
	// wireWindow is the length of one measurement window.
	wireWindow = 100 * time.Millisecond
	// wireRoundOps fixes the work of one round, so what the round leaves
	// on the device and in memory does not depend on the machine's speed.
	// Each round starts a fresh server and warms it up for wireWarmup.
	wireRoundOps = 300000
	wireWarmup   = 500 * time.Millisecond
)

// serverConfig is ipaserver's default engine configuration.
func serverConfig() ipa.Config {
	return ipa.Config{
		Chips:                4,
		WriteMode:            ipa.IPANativeFlash,
		Scheme:               ipa.Scheme{N: 2, M: 4},
		FlashMode:            ipa.PSLC,
		CheckpointEveryBytes: wireCheckpointBytes,
		StatsInterval:        time.Second,
	}
}

type wireEnv struct {
	db      *ipa.DB
	srv     *server.Server
	clients []*ipaclient.Client
	rows    [][]byte // the expected row of every key
	http    *http.Client
}

func setupWire(seed int64) (*wireEnv, error) {
	db, err := ipa.Open(serverConfig())
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		db.Close()
		return nil, err
	}
	e := &wireEnv{db: db, srv: srv, rows: loadedRows(wireKeys, wireValueSize, seed),
		http: &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}}
	for i := 0; i < wireConns; i++ {
		c, err := ipaclient.Dial(srv.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	if err := e.clients[0].CreateTable(wireTable, wireValueSize); err != nil {
		e.close()
		return nil, err
	}
	// Preload: each connection inserts its own half, pipelined.
	errs := make([]error, wireConns)
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := wireRange(i)
			for k := lo; k < hi; k += 128 {
				var cmds [][][]byte
				for j := k; j < min(k+128, hi); j++ {
					cmds = append(cmds, [][]byte{[]byte("INSERT"), []byte(wireTable), strconv.AppendInt(nil, j, 10), e.rows[j]})
				}
				if errs[i] = expectOK(c.Batch(cmds)); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	db.ResetStats()
	return e, nil
}

// wireRange is the half-open key range connection i owns.
func wireRange(i int) (lo, hi int64) {
	n := int64(wireKeys / wireConns)
	return int64(i) * n, int64(i+1) * n
}

func expectOK(replies []proto.Reply, err error) error {
	if err != nil {
		return err
	}
	for _, r := range replies {
		if r.Kind != proto.KindSimple || r.Str != "OK" {
			return fmt.Errorf("reply %v %q, want OK", r.Kind, r.Str)
		}
	}
	return nil
}

// close tears the environment down without a final checkpoint.
func (e *wireEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
	e.http.CloseIdleConnections()
}

func (e *wireEnv) statsDoc() (server.StatsDoc, error) {
	var doc server.StatsDoc
	resp, err := e.http.Get("http://" + e.srv.HTTPAddr().String() + "/stats.json")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("/stats.json: %s", resp.Status)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// wireClient is what one connection measured.
type wireClient struct {
	lat       []*hist // batch round trips, by the window they ended in
	acked     int
	attempted int
	updates   int
	batchNS   int64
	errors    map[string]int // error replies by wire code
	tr        *tracer
	err       error // a malformed reply or a transport failure
}

// client runs connection i until the connections together have
// wireRoundOps commands acknowledged (counted in roundAcked).
func (e *wireEnv) client(i int, seed int64, start time.Time, roundAcked *atomic.Int64, wc *wireClient) {
	c := e.clients[i]
	lo, hi := wireRange(i)
	zipf := workload.NewZipfian(hi-lo, workload.YCSBTheta)
	r := rand.New(rand.NewSource(seed + int64(i)))
	cmds := make([][][]byte, wireBatch)
	keys := make([]int64, wireBatch)
	patches := make([][]byte, wireBatch)
	for j := range patches {
		patches[j] = make([]byte, wirePatchBytes)
	}
	offset := []byte(strconv.Itoa(wirePatchOffset))
	for roundAcked.Load() < wireRoundOps {
		for j := range cmds {
			keys[j] = lo + scrambleKey(zipf.Next(r), hi-lo)
			key := strconv.AppendInt(nil, keys[j], 10)
			if r.Intn(100) < wireUpdatePct {
				fill(patches[j], r.Int63())
				cmds[j] = [][]byte{[]byte("UPDATE"), []byte(wireTable), key, offset, patches[j]}
			} else {
				cmds[j] = [][]byte{[]byte("GET"), []byte(wireTable), key}
			}
		}
		wc.tr.beginOp()
		s := wc.tr.start(spanBatch)
		t0 := time.Now()
		replies, err := c.Batch(cmds)
		t1 := time.Now()
		wc.tr.end(s)
		if t1.After(start) {
			w := int(t1.Sub(start) / wireWindow)
			for len(wc.lat) <= w {
				wc.lat = append(wc.lat, &hist{})
			}
			wc.lat[w].add(t1.Sub(t0))
		}
		wc.batchNS += int64(t1.Sub(t0))
		wc.attempted += len(cmds)
		if err != nil {
			wc.err = fmt.Errorf("batch: %w", err)
			return
		}
		acked := 0
		for j, rep := range replies {
			if rep.Kind == proto.KindError {
				wc.errors[rep.ErrorCode()]++
				continue
			}
			k := keys[j]
			if string(cmds[j][0]) == "UPDATE" {
				if rep.Kind != proto.KindSimple || rep.Str != "OK" {
					wc.err = fmt.Errorf("UPDATE %d: reply %v %q, want OK", k, rep.Kind, rep.Str)
					return
				}
				copy(e.rows[k][wirePatchOffset:], patches[j])
				wc.updates++
			} else if err := wellFormed(rep, e.rows[k]); err != nil {
				wc.err = fmt.Errorf("GET %d: %w", k, err)
				return
			}
			acked++
		}
		wc.acked += acked
		roundAcked.Add(int64(acked))
		wc.tr.endOp()
	}
}

// tick is the state of a measured phase at a window boundary.
type tick struct {
	at    time.Time
	cpu   time.Duration
	acked int64
}

// watch waits for the measurement to start, then takes a tick at every
// window boundary until the clients are done, and samples the gauges from
// /stats.json at every tenth tick (a scrape costs the server some time).
// The window the clients finish in is left out.
func (e *wireEnv) watch(acked *atomic.Int64, g *gauges, start time.Time, done <-chan struct{}) ([]tick, error) {
	take := func() tick { return tick{at: time.Now(), cpu: cpuTime(), acked: acked.Load()} }
	select {
	case <-time.After(time.Until(start)):
	case <-done:
		return nil, nil
	}
	ticks := []tick{take()}
	t := time.NewTicker(wireWindow)
	defer t.Stop()
	for {
		select {
		case <-done:
			return ticks, nil
		case <-t.C:
		}
		ticks = append(ticks, take())
		if len(ticks)%10 != 0 {
			continue
		}
		doc, err := e.statsDoc()
		if err != nil {
			return ticks, err
		}
		g.sample(doc.Engine, e.db.WAL().LiveBytes())
	}
}

// wellFormed checks a GET reply: a bulk of the row size that carries the
// key and the row's loaded bytes everywhere except the patched tail. The
// tail is not compared: under concurrent commits a fresh statement
// snapshot may trail the connection's own last commit.
func wellFormed(r proto.Reply, want []byte) error {
	if r.Kind != proto.KindBulk || len(r.Bulk) != len(want) {
		return fmt.Errorf("reply %v of %d bytes, want a %d-byte bulk", r.Kind, len(r.Bulk), len(want))
	}
	if !bytes.Equal(r.Bulk[:wirePatchOffset], want[:wirePatchOffset]) {
		return fmt.Errorf("row body differs from the loaded row")
	}
	return nil
}

func runWire(cfg runConfig, p *pass) error {
	for p.rounds == 0 || p.wall < cfg.seconds {
		if err := wireRound(cfg, p); err != nil {
			return fmt.Errorf("wire-mixed round %d: %w", p.rounds, err)
		}
	}
	return nil
}

func wireRound(cfg runConfig, p *pass) error {
	e, d, err := timed(func() (*wireEnv, error) { return setupWire(cfg.seed) })
	if err != nil {
		return err
	}
	p.setup = append(p.setup, d)
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()
	var g gauges
	first, err := e.statsDoc()
	if err != nil {
		return err
	}

	clients := make([]wireClient, wireConns)
	for i := range clients {
		clients[i].errors = map[string]int{}
		clients[i].tr = p.tracer(cfg, 1)
	}
	// The clients warm up, the watcher ticks off the measured windows, and
	// the clients stop once the round's commands are acknowledged.
	start := time.Now().Add(wireWarmup)
	var roundAcked atomic.Int64
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.client(i, cfg.seed, start, &roundAcked, &clients[i])
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	ticks, err := e.watch(&roundAcked, &g, start, done)
	<-done
	if err != nil {
		return fmt.Errorf("stats poller: %w", err)
	}
	if len(ticks) < 2 {
		return fmt.Errorf("the round ended before its first measured window")
	}
	p.wall += ticks[len(ticks)-1].at.Sub(ticks[0].at)
	for k := 1; k < len(ticks); k++ {
		var lat hist
		for i := range clients {
			if k-1 < len(clients[i].lat) {
				lat.merge(clients[i].lat[k-1])
			}
		}
		a, b := ticks[k-1], ticks[k]
		p.addWindow(int(b.acked-a.acked), b.at.Sub(a.at), b.cpu-a.cpu, &lat)
	}
	last, err := e.statsDoc()
	if err != nil {
		return err
	}
	g.sample(last.Engine, e.db.WAL().LiveBytes())

	var batchNS int64
	acked, updates := 0, 0
	errorReplies := map[string]int{}
	for i := range clients {
		c := &clients[i]
		if c.err != nil {
			return fmt.Errorf("connection %d: %w", i, c.err)
		}
		batchNS += c.batchNS
		p.attempted += c.attempted
		acked += c.acked
		updates += c.updates
		for code, n := range c.errors {
			errorReplies[code] += n
			p.failed += n
		}
	}
	if len(errorReplies) > 0 {
		fmt.Printf("wire-mixed error replies by wire code: %v\n", errorReplies)
	}
	p.ops += acked
	p.virtual += last.Engine.Elapsed

	// The background checkpointer must still be alive: it exits silently
	// on its first error.
	if last.Engine.CheckpointLSN <= first.Engine.CheckpointLSN {
		return fmt.Errorf("background checkpointer stalled: checkpoint LSN %d at start, %d at end",
			first.Engine.CheckpointLSN, last.Engine.CheckpointLSN)
	}
	if g.bytesSinceCkptMax >= 2*wireCheckpointBytes {
		return fmt.Errorf("background checkpointer lags: %d WAL bytes since the last checkpoint", g.bytesSinceCkptMax)
	}
	// Every key's final value over the wire.
	if err := e.checkFinal(); err != nil {
		return err
	}

	// Graceful shutdown (final checkpoint, engine closed), then a restart
	// from what is on flash and in the durable log.
	for _, c := range e.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = e.srv.Shutdown(ctx)
	cancel()
	e.http.CloseIdleConnections()
	closed = true
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The identities hold only on a quiescent engine: /stats.json may catch
	// the background checkpointer between two counter updates.
	if err := reconcile(e.db.Stats()); err != nil {
		return err
	}
	db2, err := p.reopen(e.db.Crash(), clients[0].tr)
	if err != nil {
		return err
	}
	defer db2.Close()
	g.recovery = db2.RecoveryStats()
	t2, ok := db2.Table(wireTable)
	if !ok {
		return fmt.Errorf("after restart: table %s missing", wireTable)
	}
	for k, want := range e.rows {
		row, err := t2.Get(int64(k))
		if err != nil {
			return fmt.Errorf("after restart: key %d: %w", k, err)
		}
		if !bytes.Equal(row, want) {
			return fmt.Errorf("after restart: key %d lost its last acknowledged patch", k)
		}
	}
	if err := db2.VerifyIntegrity(); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	// The engine's memory as restarted on this round's flash image. The
	// retired handle is dropped first: how many recycled log segments it
	// kept depends on where the last checkpoints fell.
	e.db, e.srv = nil, nil
	p.heapMiB = append(p.heapMiB, liveHeapMiB())

	m := layerMetrics(window{before: first.Engine, after: last.Engine, ops: acked,
		changedBytes: uint64(updates) * wirePatchBytes, pageSize: db2.Config().PageSize}, &g)
	// Server-side execution time of the round's commands, from the latency
	// histograms on /stats.json.
	var execUS float64
	var execN uint64
	for _, name := range []string{"GET", "UPDATE"} {
		a, b := last.Latency[name], first.Latency[name]
		execUS += a.MeanUS*float64(a.Count) - b.MeanUS*float64(b.Count)
		execN += a.Count - b.Count
	}
	m["wire.server_exec_us_per_op"] = execUS / float64(execN)
	m["wire.overhead_us_per_op"] = (float64(batchNS)/1e3 - execUS) / float64(execN)
	m["server.error_replies"] = float64(last.Server.ErrorRepliesTotal - first.Server.ErrorRepliesTotal)
	return p.addRound(m, false)
}

// checkFinal reads every key over the wire and compares it with its last
// acknowledged value.
func (e *wireEnv) checkFinal() error {
	c := e.clients[0]
	for lo := int64(0); lo < wireKeys; lo += 256 {
		var cmds [][][]byte
		for k := lo; k < lo+256; k++ {
			cmds = append(cmds, [][]byte{[]byte("GET"), []byte(wireTable), strconv.AppendInt(nil, k, 10)})
		}
		replies, err := c.Batch(cmds)
		if err != nil {
			return fmt.Errorf("final read: %w", err)
		}
		for j, r := range replies {
			k := lo + int64(j)
			if r.Kind != proto.KindBulk || !bytes.Equal(r.Bulk, e.rows[k]) {
				return fmt.Errorf("final read of key %d: %v %q is not its last acknowledged value", k, r.Kind, r.Str)
			}
		}
	}
	return nil
}
