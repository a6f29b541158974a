package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"geogossip/internal/obs"
	"geogossip/internal/sweep"
)

// CoordOptions configures Serve.
type CoordOptions struct {
	// Sink receives task results in canonical task-ID order — never in
	// completion order. A fresh distributed run therefore writes the
	// sink byte-identically to a single-process, single-worker sweep.
	// Nil discards the stream; Serve still returns collected results.
	Sink sweep.Sink
	// Resume carries results from a previous run of the same spec (a
	// restarted coordinator re-reads its sink through
	// sweep.ReadResults). They are validated against the current grid,
	// never re-leased, and never re-written to the sink.
	Resume []sweep.TaskResult
	// LeaseSize caps the tasks per lease. Zero sizes each lease to twice
	// the requesting worker's slot count.
	LeaseSize int
	// LeaseTimeout expires a lease whose worker has neither streamed a
	// result nor heartbeat within it; its unfinished tasks return to the
	// pending pool for deterministic re-issue (per-task seeds make the
	// re-execution bit-identical). Zero selects 30s.
	LeaseTimeout time.Duration
	// MaxBuffered bounds the in-flight window: no task is leased more
	// than MaxBuffered positions ahead of the canonical flush frontier,
	// so a slow worker holding an early lease can delay the sink but
	// never balloon the coordinator's out-of-order buffer. Zero selects
	// 4096.
	MaxBuffered int
	// RetryMillis is the backoff hint sent with MsgWait. Zero selects
	// 250.
	RetryMillis int
	// Linger is how long Serve waits after grid completion for connected
	// workers to ask once more and receive their bye. Zero selects 3s.
	Linger time.Duration
	// Progress, when non-nil, is called after every executed task with
	// the number done and the number scheduled (resumed tasks excluded,
	// like the local engine). Calls are serialized under the
	// coordinator's lock.
	Progress func(done, total int)
	// Obs, when non-nil, receives the coordinator's scheduling gauges:
	// connected workers, active leases, re-issues, buffered results,
	// per-worker task counts and heartbeat ages, plus the sweep-level
	// task gauges and the workers' summed sweep.RunStats, published by
	// the same RunStats.SetGauges as the local engine's, so /progress
	// endpoints work unchanged.
	Obs *obs.Registry
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.MaxBuffered <= 0 {
		o.MaxBuffered = 4096
	}
	if o.RetryMillis <= 0 {
		o.RetryMillis = 250
	}
	if o.Linger <= 0 {
		o.Linger = 3 * time.Second
	}
	return o
}

// Summary is the coordinator's output.
type Summary struct {
	// Results lists every completed task (executed and resumed) in
	// canonical task-ID order. After a cancelled run it may extend past
	// the sink, which always holds a gap-free canonical prefix.
	Results []sweep.TaskResult
	// Metrics sums the per-task metric deltas of every accepted result —
	// bit-identical to the single-process SweepReport.Metrics for the
	// same executed task set, regardless of worker count or lease
	// re-issues (duplicates are discarded with their deltas).
	Metrics map[string]float64
	// Stats sums the workers' run statistics (best-effort under worker
	// death: a crashed worker's last heartbeat stands in). Distributed
	// workers each build their own networks, so Stats.Net.Networks counts
	// builds across processes — higher than a single-process run of the
	// same grid.
	Stats sweep.RunStats
	// Workers counts distinct worker sessions that completed hello;
	// Reissued counts leases that expired or died and went back to the
	// pool.
	Workers  int
	Reissued int
}

const (
	statePending uint8 = iota
	stateLeased
	stateDone
)

type lease struct {
	id    int
	tasks []int
	owner *workerConn
}

type workerConn struct {
	key      string
	conn     net.Conn
	fw       *frameWriter
	slots    int
	leases   map[int]*lease
	lastBeat time.Time
	done     int
	stats    sweep.RunStats
	deadline time.Time
}

type coordinator struct {
	opt   CoordOptions
	spec  sweep.Spec
	tasks []sweep.Task

	mu        sync.Mutex
	state     []uint8
	taskLease []int
	results   map[int]*sweep.TaskResult
	resumed   map[int]bool
	frontier  int // first task not yet flushed to the sink
	execDone  int // executed (non-resumed) completions
	execTotal int
	metrics   map[string]float64
	sinkErr   error

	workers     map[string]*workerConn
	gone        sweep.RunStats // summed final stats of departed workers
	nextLease   int
	sessions    int
	reissued    int
	buffered    int
	finished    bool
	finishedCh  chan struct{}
	gaugeDone   *obs.Gauge
	gaugeLeases *obs.Gauge
	gaugeWkrs   *obs.Gauge
	gaugeBuf    *obs.Gauge
	gaugeReiss  *obs.Gauge
}

// Serve coordinates one distributed sweep on ln until every task of the
// grid is flushed (or ctx is cancelled / the sink fails), then returns
// the summary. Workers connect with Join. The listener is closed before
// Serve returns.
func Serve(ctx context.Context, ln net.Listener, spec sweep.Spec, opt CoordOptions) (*Summary, error) {
	opt = opt.withDefaults()
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tasks := spec.Expand()
	resumed, err := sweep.ValidateResume(tasks, opt.Resume)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		opt:        opt,
		spec:       spec,
		tasks:      tasks,
		state:      make([]uint8, len(tasks)),
		taskLease:  make([]int, len(tasks)),
		results:    make(map[int]*sweep.TaskResult),
		resumed:    resumed,
		metrics:    make(map[string]float64),
		workers:    make(map[string]*workerConn),
		finishedCh: make(chan struct{}),
		execTotal:  len(tasks) - len(resumed),
	}
	for _, r := range opt.Resume {
		r := r
		c.state[r.TaskID] = stateDone
		c.results[r.TaskID] = &r
	}
	defer c.registerObs()()
	c.mu.Lock()
	c.advanceFrontier()
	c.mu.Unlock()

	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.handleConn(conn)
			}()
		}
	}()
	reaperDone := make(chan struct{})
	go c.reap(reaperDone)

	select {
	case <-ctx.Done():
	case <-c.finishedCh:
		// Give connected workers one more want→bye round trip before the
		// listener (and their connections) go away.
		drained := make(chan struct{})
		go func() { wg.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(opt.Linger):
		case <-ctx.Done():
		}
	}
	ln.Close()
	close(reaperDone)
	c.mu.Lock()
	for _, w := range c.workers {
		w.conn.Close()
	}
	c.mu.Unlock()
	wg.Wait()

	sum := c.summary()
	if c.sinkErr != nil {
		return sum, c.sinkErr
	}
	if err := ctx.Err(); err != nil && !c.isFinished() {
		return sum, err
	}
	return sum, nil
}

func (c *coordinator) isFinished() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished
}

// registerObs registers the coordinator's gauges and its scrape-time
// collector, and returns the function Serve defers: it removes the
// collector, which holds the coordinator, and refreshes the gauges one
// last time, so they keep the finished sweep's values.
func (c *coordinator) registerObs() (unregister func()) {
	reg := c.opt.Obs
	if reg == nil {
		return func() {}
	}
	reg.Gauge(obs.MetricSweepTasksTotal,
		"Tasks scheduled in the current sweep run.").Set(float64(c.execTotal))
	c.gaugeDone = reg.Gauge(obs.MetricSweepTasksDone,
		"Tasks completed in the current sweep run.")
	c.gaugeDone.Set(0)
	c.gaugeWkrs = reg.Gauge(obs.MetricDistWorkers,
		"Worker processes currently connected to the sweep coordinator.")
	c.gaugeLeases = reg.Gauge(obs.MetricDistLeasesActive,
		"Task leases currently held by workers.")
	c.gaugeBuf = reg.Gauge(obs.MetricDistBufferedResults,
		"Completed results buffered ahead of the canonical flush frontier.")
	c.gaugeReiss = reg.Gauge(obs.MetricDistLeasesReissued,
		"Leases returned to the pool after worker death or heartbeat timeout.")
	refresh := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		now := time.Now()
		for _, w := range c.workers {
			reg.Gauge(obs.MetricDistWorkerTasksDone,
				"Tasks completed, by worker.", "worker", w.key).Set(float64(w.done))
			reg.Gauge(obs.MetricDistHeartbeatAge,
				"Seconds since each worker's last message.", "worker", w.key).Set(now.Sub(w.lastBeat).Seconds())
		}
		c.statsLocked().SetGauges(reg)
	}
	remove := reg.OnScrape(refresh)
	return func() {
		remove()
		refresh()
	}
}

// statsLocked sums the latest run statistics of every worker session,
// departed and connected. Callers hold c.mu.
func (c *coordinator) statsLocked() sweep.RunStats {
	s := c.gone
	for _, w := range c.workers {
		s.Add(w.stats)
	}
	return s
}

func (c *coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	fw := &frameWriter{w: conn}
	hello, err := readMsg(br)
	if err != nil || hello.Type != MsgHello {
		return
	}
	if hello.Proto != ProtocolVersion {
		_ = fw.send(&Msg{Type: MsgBye, Err: fmt.Sprintf("dist: coordinator speaks protocol %d, worker %d", ProtocolVersion, hello.Proto)})
		return
	}
	w := c.register(conn, fw, hello)
	defer c.unregister(w)
	if err := fw.send(&Msg{Type: MsgSpec, Spec: &c.spec}); err != nil {
		return
	}
	for {
		m, err := readMsg(br)
		if err != nil {
			return
		}
		c.refresh(w)
		switch m.Type {
		case MsgWant:
			reply := c.grant(w)
			if err := fw.send(reply); err != nil {
				return
			}
			if reply.Type == MsgBye {
				return
			}
		case MsgResult:
			if m.Result == nil {
				return
			}
			c.accept(w, m.Result, m.Metrics)
		case MsgDone:
			c.leaseDone(w, m.Lease, m.Stats)
		case MsgHeartbeat:
			c.noteStats(w, m.Stats)
		default:
			return
		}
	}
}

func (c *coordinator) register(conn net.Conn, fw *frameWriter, hello *Msg) *workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := hello.Name
	if key == "" {
		key = conn.RemoteAddr().String()
	}
	if _, taken := c.workers[key]; taken {
		key = fmt.Sprintf("%s@%s", key, conn.RemoteAddr())
	}
	slots := hello.Slots
	if slots <= 0 {
		slots = 1
	}
	w := &workerConn{
		key:      key,
		conn:     conn,
		fw:       fw,
		slots:    slots,
		leases:   make(map[int]*lease),
		lastBeat: time.Now(),
	}
	c.workers[key] = w
	c.sessions++
	if c.gaugeWkrs != nil {
		c.gaugeWkrs.Set(float64(len(c.workers)))
	}
	return w
}

func (c *coordinator) unregister(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(w)
	delete(c.workers, w.key)
	c.gone.Add(w.stats)
	if c.gaugeWkrs != nil {
		c.gaugeWkrs.Set(float64(len(c.workers)))
	}
}

// releaseLocked returns every unfinished task of w's leases to the
// pending pool. Callers hold c.mu.
func (c *coordinator) releaseLocked(w *workerConn) {
	for id, l := range w.leases {
		for _, t := range l.tasks {
			if c.state[t] == stateLeased && c.taskLease[t] == l.id {
				c.state[t] = statePending
			}
		}
		delete(w.leases, id)
		c.reissued++
	}
	c.updateLeaseGauges()
}

func (c *coordinator) updateLeaseGauges() {
	if c.gaugeLeases == nil {
		return
	}
	active := 0
	for _, w := range c.workers {
		active += len(w.leases)
	}
	c.gaugeLeases.Set(float64(active))
	c.gaugeReiss.Set(float64(c.reissued))
	c.gaugeBuf.Set(float64(c.buffered))
}

// refresh marks the worker alive and extends its lease deadline.
func (c *coordinator) refresh(w *workerConn) {
	c.mu.Lock()
	w.lastBeat = time.Now()
	w.deadline = w.lastBeat.Add(c.opt.LeaseTimeout)
	c.mu.Unlock()
}

func (c *coordinator) noteStats(w *workerConn, s *sweep.RunStats) {
	if s == nil {
		return
	}
	c.mu.Lock()
	w.stats = *s
	c.mu.Unlock()
}

// grant builds the reply to a want: a lease of pending task IDs inside
// the in-flight window, a wait when nothing is leasable right now, or a
// bye when the grid is complete (or the run failed).
func (c *coordinator) grant(w *workerConn) *Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.sinkErr != nil {
		return &Msg{Type: MsgBye, Err: errString(c.sinkErr)}
	}
	size := c.opt.LeaseSize
	if size <= 0 {
		size = 2 * w.slots
	}
	hi := c.frontier + c.opt.MaxBuffered
	if hi > len(c.tasks) {
		hi = len(c.tasks)
	}
	var ids []int
	for t := c.frontier; t < hi && len(ids) < size; t++ {
		if c.state[t] == statePending {
			ids = append(ids, t)
		}
	}
	if len(ids) == 0 {
		return &Msg{Type: MsgWait, RetryMillis: c.opt.RetryMillis}
	}
	c.nextLease++
	l := &lease{id: c.nextLease, tasks: ids, owner: w}
	for _, t := range ids {
		c.state[t] = stateLeased
		c.taskLease[t] = l.id
	}
	w.leases[l.id] = l
	w.deadline = time.Now().Add(c.opt.LeaseTimeout)
	c.updateLeaseGauges()
	return &Msg{Type: MsgLease, Lease: l.id, Tasks: ids}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// accept folds one streamed result in. Duplicates — a task finished by
// two workers after a lease re-issue — are discarded along with their
// metric deltas, which keeps both the sink and the summed metrics
// bit-identical to a single-process run.
func (c *coordinator) accept(w *workerConn, r *sweep.TaskResult, delta map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.TaskID < 0 || r.TaskID >= len(c.tasks) || c.state[r.TaskID] == stateDone {
		return
	}
	c.state[r.TaskID] = stateDone
	c.results[r.TaskID] = r
	c.buffered++
	for k, v := range delta {
		c.metrics[k] += v
	}
	c.execDone++
	w.done++
	if c.gaugeDone != nil {
		c.gaugeDone.Set(float64(c.execDone))
	}
	c.advanceFrontier()
	c.updateLeaseGauges()
	if c.opt.Progress != nil {
		c.opt.Progress(c.execDone, c.execTotal)
	}
}

// advanceFrontier flushes buffered results to the sink in canonical
// order. Callers hold c.mu.
func (c *coordinator) advanceFrontier() {
	for c.frontier < len(c.tasks) && c.state[c.frontier] == stateDone {
		if !c.resumed[c.frontier] {
			c.buffered--
			if c.opt.Sink != nil && c.sinkErr == nil {
				if err := c.opt.Sink.Write(*c.results[c.frontier]); err != nil {
					c.sinkErr = fmt.Errorf("dist: sink: %w", err)
					c.finishLocked()
					return
				}
			}
		}
		c.frontier++
	}
	if c.frontier == len(c.tasks) {
		c.finishLocked()
	}
}

func (c *coordinator) finishLocked() {
	if !c.finished {
		c.finished = true
		close(c.finishedCh)
	}
}

func (c *coordinator) leaseDone(w *workerConn, id int, s *sweep.RunStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s != nil {
		w.stats = *s
	}
	l, ok := w.leases[id]
	if !ok {
		return // expired and re-issued; its tasks are someone else's now
	}
	// Any task of the lease the worker never reported (it skipped or
	// lost it) goes back to pending rather than leaking.
	for _, t := range l.tasks {
		if c.state[t] == stateLeased && c.taskLease[t] == l.id {
			c.state[t] = statePending
		}
	}
	delete(w.leases, id)
	c.updateLeaseGauges()
}

// reap expires the leases of workers that have gone silent: connected
// but without any message for LeaseTimeout (worker death usually shows
// up as a closed connection first; the timeout catches hung processes
// and half-dead links).
func (c *coordinator) reap(done <-chan struct{}) {
	interval := c.opt.LeaseTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-t.C:
			c.mu.Lock()
			for _, w := range c.workers {
				if len(w.leases) > 0 && now.After(w.deadline) {
					c.releaseLocked(w)
					// The connection may still be alive; results it sends
					// later are judged per task (accepted if the task is
					// still open, discarded as duplicates otherwise).
				}
			}
			c.mu.Unlock()
		}
	}
}

func (c *coordinator) summary() *Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := &Summary{
		Metrics:  c.metrics,
		Stats:    c.statsLocked(),
		Workers:  c.sessions,
		Reissued: c.reissued,
	}
	ids := make([]int, 0, len(c.results))
	for id := range c.results {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sum.Results = append(sum.Results, *c.results[id])
	}
	return sum
}
