package storage

import (
	"runtime"
	"sync"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
)

// Group commit (DESIGN.md "Durability"): leader/follower batching with
// one flush in flight. A committer adds its transaction to the pending
// queue. The first committer that finds no flush in progress becomes the
// leader: it gathers everything queued into one multi-record append
// followed by a single fsync, on its own stack, then wakes its followers
// with the shared durability result and promotes the oldest committer
// that queued meanwhile to lead the next batch. At most one batch is ever
// between append and fsync verdict; redo appends keep flowing while that
// fsync is on the device, and the commits they reach queue for the next
// batch.
//
// Batching starts "natural": commits arriving during a flush form the
// next batch, so the fsync duration itself gates batch growth. On top of
// that the leader lingers adaptively: when the previous flush carried
// company (or commits are already queued), it waits up to half the
// observed flush cost — capped at 1ms — for stragglers, absorbing the
// arrival spread of committers that woke from the last batch and are
// racing through their next transaction. A lone committer never lingers
// and pays exactly one append+fsync.
//
// When the batch's append or fsync fails, every transaction in the batch
// gets the error, none is reported durable, and the WAL is poisoned
// (ErrWALBroken) until recovery — commit records already in the file must
// not be resurrected by a later successful fsync after their commits
// were reported failed.

// GroupCommitOptions is empty: group commit has no knobs, every WAL
// batches its commits from creation. The type and EnableGroupCommit stay
// so that callers of the former configuration API — the perfbench
// harness, kept unchanged so its runs compare across versions — still
// compile.
type GroupCommitOptions struct{}

// EnableGroupCommit is a no-op kept for source compatibility; see
// GroupCommitOptions.
func (w *WAL) EnableGroupCommit(GroupCommitOptions) {}

const (
	// maxGroupBatch caps how many commit records one flush coalesces.
	maxGroupBatch = 256
	// maxGroupBudget caps the adaptive linger.
	maxGroupBudget = time.Millisecond
	// spinLingerMax bounds the busy-wait linger: up to this budget the
	// leader spins with Gosched (runtime timers cannot resolve the
	// microsecond gaps being waited out); above it the wait blocks on a
	// timer so a sustained commit load does not pin a core for up to 1ms
	// per flush.
	spinLingerMax = 100 * time.Microsecond
)

// CommitPhases is one durable commit's flight record: where its time
// went, stage by stage. Timestamps are Unix nanoseconds so the server
// can re-emit the stages as retroactive trace spans; the durations are
// what the wal_phase_* histograms observe. The batch-shared stages
// (linger, append, fsync, publish) carry the whole batch's timing,
// identical for every member; enqueue wait is the member's own.
type CommitPhases struct {
	EnqueuedAt    int64 // when the commit entered the pipeline
	EnqueueWaitNS int64 // queued until its batch's flush began
	LingerNS      int64 // how long the leader gathered the batch
	AppendAt      int64
	AppendNS      int64 // WAL lock + frame build + buffered write
	FsyncAt       int64
	FsyncNS       int64 // the batch's shared fsync
	PublishAt     int64
	PublishNS     int64 // version-store publish (the commit hook)
	BatchSize     int
}

// commitReq is one transaction waiting for its commit record to be
// durable. done is nil for the committer that led from the start; a
// follower receives its verdict on it, or a promotion to lead.
type commitReq struct {
	tx      uint64
	traceID uint64 // exemplar candidate for the batch's histograms
	enq     time.Time
	done    chan commitResult
}

// commitResult is delivered to a follower: its batch's outcome, or lead
// set when it must flush the next batch itself.
type commitResult struct {
	phases CommitPhases
	err    error
	lead   bool
}

// groupCommitter is the leader/follower state of one WAL. mu guards
// everything but the adaptive-linger fields, which only the current
// leader touches (leadership passes under mu or over a done channel, so
// each leader sees its predecessor's writes).
type groupCommitter struct {
	mu      sync.Mutex
	queue   []commitReq // FIFO; the leader's own request is at the head
	leading bool        // some committer holds the leader role
	pending int         // committers enqueued and not yet given a verdict
	hold    chan struct{}
	arrive  chan struct{} // signalled by followers; wakes a timed linger

	// Heartbeats for the health watchdog (GroupCommitStatus): busySince is
	// when the current leader's cycle began (zero while no one leads),
	// beat when the last flush completed.
	busySince time.Time
	beat      time.Time

	avgFlushNS int64 // EWMA of flush duration
	lastBatch  int   // size of the previous flush
}

// CommitDurable makes tx's commit record durable. Commits arriving while
// a flush is in progress coalesce into the next batch and share its
// fsync.
func (w *WAL) CommitDurable(tx uint64) error {
	_, err := w.CommitDurablePhases(tx, 0)
	return err
}

// CommitDurablePhases is CommitDurable with the flight record: it
// returns where the commit's time went, stage by stage, and stamps the
// phase histograms' exemplars with traceID when nonzero.
func (w *WAL) CommitDurablePhases(tx uint64, traceID uint64) (CommitPhases, error) {
	g := &w.gc
	enq := time.Now()
	g.mu.Lock()
	g.pending++
	if !g.leading {
		g.leading = true
		g.busySince = enq
		g.queue = append(g.queue, commitReq{tx: tx, traceID: traceID, enq: enq})
		g.mu.Unlock()
		return w.lead(false)
	}
	done := make(chan commitResult, 1)
	g.queue = append(g.queue, commitReq{tx: tx, traceID: traceID, enq: enq, done: done})
	g.mu.Unlock()
	select {
	case g.arrive <- struct{}{}:
	default:
	}
	res := <-done
	if res.lead {
		// A commit was waiting when the previous flush finished:
		// committers arrive at least as fast as flushes complete.
		return w.lead(true)
	}
	return res.phases, res.err
}

// lead runs one leader cycle: gather the batch, flush it, hand the
// leader role on, and wake the followers. The leader's own request heads
// the queue, so it heads its batch too.
func (w *WAL) lead(busy bool) (CommitPhases, error) {
	// A stall here models a slow or descheduled log writer: commits keep
	// arriving and pile into one large batch (arm a Delay at
	// faultpoint.WALWriterStall). busySince is already set, so the health
	// watchdog sees the stall as an overlong busy cycle.
	_ = faultpoint.Check(faultpoint.WALWriterStall)
	lingerStart := time.Now()
	batch := w.gather(busy)
	return w.flush(batch, time.Since(lingerStart))
}

// gather takes the next batch off the queue: while the test hold is set
// it waits; with a linger budget it waits for stragglers; then it takes
// up to maxGroupBatch requests.
func (w *WAL) gather(busy bool) []commitReq {
	g := &w.gc
	g.mu.Lock()
	for g.hold != nil {
		h := g.hold
		g.mu.Unlock()
		<-h // released; re-check (a test may hold again immediately)
		g.mu.Lock()
	}
	if budget := g.lingerBudget(busy, len(g.queue)); budget > 0 {
		seen := len(g.queue)
		g.mu.Unlock()
		g.linger(budget, seen)
		g.mu.Lock()
	}
	n := min(len(g.queue), maxGroupBatch)
	batch := g.queue[:n:n]
	g.queue = g.queue[n:]
	g.mu.Unlock()
	return batch
}

// lingerBudget sizes the wait for stragglers: half the EWMA flush cost
// (capped at maxGroupBudget), and only on evidence of concurrent
// committers worth waiting for — the previous flush carried more than
// one commit, a commit was already waiting when that flush finished
// (busy), or commits besides the leader's are queued right now. A lone
// committer sees budget 0 and flushes immediately.
func (g *groupCommitter) lingerBudget(busy bool, queued int) time.Duration {
	if !busy && g.lastBatch <= 1 && queued <= 1 {
		return 0
	}
	return min(time.Duration(g.avgFlushNS/2), maxGroupBudget)
}

// linger waits for stragglers. It is gap-based: each arrival proves more
// committers are in flight and extends the wait; the first pause in the
// stream ends it, and the total budget bounds the added latency even
// under a continuous trickle. Small budgets (up to spinLingerMax) yield
// the processor rather than arming a timer — runtime timers cannot
// resolve the microsecond gaps being waited out — while larger budgets
// block on a timer so the leader does not burn a core for up to 1ms per
// flush under sustained load. Either way the wait ends as soon as the
// previous flush's cohort has fully re-arrived.
func (g *groupCommitter) linger(budget time.Duration, seen int) {
	gap := budget / 4
	deadline := time.Now().Add(budget)
	gapEnd := time.Now().Add(gap)
	for seen < maxGroupBatch && !(g.lastBatch > 1 && seen >= g.lastBatch) {
		g.mu.Lock()
		n := len(g.queue)
		g.mu.Unlock()
		now := time.Now()
		if n > seen {
			seen = n
			gapEnd = now.Add(gap)
			continue
		}
		wake := gapEnd
		if deadline.Before(wake) {
			wake = deadline
		}
		if !now.Before(wake) {
			return
		}
		if budget <= spinLingerMax {
			runtime.Gosched()
			continue
		}
		t := time.NewTimer(wake.Sub(now))
		select {
		case <-g.arrive:
			t.Stop()
		case <-t.C:
		}
	}
}

// flush writes the batch as one append+fsync, passes the leader role to
// the oldest queued committer (if any), and wakes every follower with the
// shared result plus its flight record; the leader's own result is
// returned. linger is how long gather held the batch open (observed once
// per batch; a member's enqueue wait is its own queued time, measured
// here against the flush start).
func (w *WAL) flush(batch []commitReq, linger time.Duration) (CommitPhases, error) {
	g := &w.gc
	txs := make([]uint64, len(batch))
	exemplar := uint64(0)
	for i, r := range batch {
		txs[i] = r.tx
		if exemplar == 0 {
			exemplar = r.traceID
		}
	}
	start := time.Now()
	ph := CommitPhases{LingerNS: linger.Nanoseconds()}
	err := w.appendCommitBatch(txs, &ph, exemplar)
	end := time.Now()
	// EWMA with alpha 1/4 feeds the adaptive linger.
	g.avgFlushNS += (end.Sub(start).Nanoseconds() - g.avgFlushNS) / 4
	g.lastBatch = len(batch)

	g.mu.Lock()
	g.pending -= len(batch)
	g.beat = end
	var next chan commitResult
	if len(g.queue) > 0 {
		next = g.queue[0].done
		g.busySince = end
	} else {
		g.leading = false
		g.busySince = time.Time{}
	}
	g.mu.Unlock()
	if next != nil {
		next <- commitResult{lead: true}
	}

	obs := w.Metrics()
	if err == nil {
		obs.ObserveHistTrace(metrics.HistPhaseLinger, ph.LingerNS, exemplar)
	}
	var own CommitPhases
	for i, r := range batch {
		p := ph
		p.EnqueuedAt = r.enq.UnixNano()
		p.EnqueueWaitNS = max(start.Sub(r.enq).Nanoseconds(), 0)
		if err == nil {
			obs.ObserveHistTrace(metrics.HistPhaseEnqueueWait, p.EnqueueWaitNS, r.traceID)
		}
		if i == 0 {
			own = p
			continue
		}
		r.done <- commitResult{phases: p, err: err}
	}
	return own, err
}

// GroupCommitStatus is a point-in-time view of the commit leader,
// consumed by the health watchdog: a leader cycle that has run much
// longer than a flush should take is a stalled log writer.
type GroupCommitStatus struct {
	Pending   int       // commits enqueued or being flushed
	LastBeat  time.Time // last completed flush (zero: never)
	BusySince time.Time // start of the current leader cycle (zero: idle)
}

// GroupCommitStatus reports the leader's heartbeat state.
func (w *WAL) GroupCommitStatus() GroupCommitStatus {
	g := &w.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupCommitStatus{Pending: g.pending, LastBeat: g.beat, BusySince: g.busySince}
}

// HoldGroupCommit pauses flushing (test hook): the leader gathers commit
// requests into one batch until ReleaseGroupCommit, giving crash tests a
// deterministic multi-transaction batch.
func (w *WAL) HoldGroupCommit() {
	g := &w.gc
	g.mu.Lock()
	if g.hold == nil {
		g.hold = make(chan struct{})
	}
	g.mu.Unlock()
}

// ReleaseGroupCommit lets a held leader flush the accumulated batch.
func (w *WAL) ReleaseGroupCommit() {
	g := &w.gc
	g.mu.Lock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
	g.mu.Unlock()
}

// PendingCommits returns how many commit requests are enqueued or being
// flushed — a test hook for building deterministic batches (enqueue
// order is FIFO, so polling PendingCommits between sends fixes the
// record order inside the batch).
func (w *WAL) PendingCommits() int {
	g := &w.gc
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}
