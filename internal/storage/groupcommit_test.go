package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
)

// waitPending polls until n commit requests are pending (queued behind
// or led by a held leader) — the deterministic way to build a batch with
// a known record order.
func waitPending(t *testing.T, w *WAL, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending commits stuck at %d, want %d", w.PendingCommits(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdBatch enqueues txs 1..n against a held group committer and returns
// a function that releases the batch and collects the per-commit results
// (FIFO enqueue order = record order in the batch; the first committer
// leads and waits out the hold).
func holdBatch(t *testing.T, w *WAL, n int) func() []error {
	t.Helper()
	w.HoldGroupCommit()
	errsCh := make([]chan error, n)
	for i := 0; i < n; i++ {
		errsCh[i] = make(chan error, 1)
		tx, ch := uint64(i+1), errsCh[i]
		go func() { ch <- w.CommitDurable(tx) }()
		waitPending(t, w, i+1)
	}
	return func() []error {
		w.ReleaseGroupCommit()
		out := make([]error, n)
		for i, ch := range errsCh {
			out[i] = <-ch
		}
		return out
	}
}

// TestGroupCommitBatchesOneFsync holds the leader, queues five commits,
// releases, and asserts the batch became one append+fsync carrying five
// commit records in enqueue order.
func TestGroupCommitBatchesOneFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	const n = 5
	preOff := w.Offset()
	preFsync := reg.Count(metrics.CtrWALFsync)
	release := holdBatch(t, w, n)
	if got := w.Offset(); got != preOff {
		t.Fatalf("held batch already appended: offset %d, want %d", got, preOff)
	}
	for i, err := range release() {
		if err != nil {
			t.Fatalf("commit %d in batch: %v", i+1, err)
		}
	}

	if got := reg.Count(metrics.CtrWALFsync) - preFsync; got != 1 {
		t.Fatalf("batch of %d commits took %d fsyncs, want 1", n, got)
	}
	if got := reg.Count(metrics.CtrWALGroupBatch); got != 1 {
		t.Fatalf("wal_group_batch = %d, want 1", got)
	}
	if got := reg.Count(metrics.CtrWALCommit); got != n {
		t.Fatalf("wal_commit = %d, want %d", got, n)
	}
	hs := reg.HistSnapshotOf(metrics.HistWALBatchSize)
	if hs.Count != 1 || hs.SumNS != n {
		t.Fatalf("batch-size histogram = count %d sum %d, want one observation of %d", hs.Count, hs.SumNS, n)
	}
	if w.SyncedOffset() != w.Offset() {
		t.Fatalf("synced %d != offset %d after batch fsync", w.SyncedOffset(), w.Offset())
	}

	recs, _, err := ScanLogFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("log holds %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Kind != RecordCommit || r.Tx != uint64(i+1) {
			t.Fatalf("record %d = kind %d tx %d, want commit of tx %d (FIFO order)", i, r.Kind, r.Tx, i+1)
		}
	}
}

// TestGroupCommitNaturalBatchingUnderStall arms a writer stall so commits
// arriving during the stall coalesce: 32 concurrent committers must need
// far fewer than 32 fsyncs. The start barrier makes the committers truly
// concurrent — without it a scheduling hiccup can split the burst, and
// commits that genuinely arrive one at a time are entitled to one fsync
// each; that is not what this test is about. The stall catches the first
// leader before it gathers, and everyone else queues behind it while it
// sleeps. Times is 2 so that a committer descheduled past the first 20ms
// stall still finds the next leader stalled and the rest queued with it.
func TestGroupCommitNaturalBatchingUnderStall(t *testing.T) {
	defer faultpoint.Reset()
	w, err := CreateWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALWriterStall, Delay: 20 * time.Millisecond, Times: 2})
	const n = 32
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ready.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			errs[i] = w.CommitDurable(uint64(i + 1))
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	if got := reg.Count(metrics.CtrWALFsync); got >= n/2 {
		t.Fatalf("%d commits under a stalled writer took %d fsyncs, want batching (< %d)", n, got, n/2)
	}
	recs, _, err := ScanLogFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("log holds %d commit records, want %d", len(recs), n)
	}
}

// TestGroupCommitBatchTornWriteSweep tears the batch append at every byte
// offset of a three-commit batch: every commit in the batch must report
// failure, the WAL must be poisoned, and — because poisoning truncates
// the unsynced tail — the file must hold none of the batch's records:
// every commit was reported failed, so not even the records wholly
// written before the tear may survive for recovery to replay.
func TestGroupCommitBatchTornWriteSweep(t *testing.T) {
	defer faultpoint.Reset()
	const n = 3
	const frameLen = 8 + 9 // walFrameHdr + commit payload
	for tornAt := 0; tornAt < n*frameLen; tornAt++ {
		t.Run(fmt.Sprintf("torn=%d", tornAt), func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			w, err := CreateWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			release := holdBatch(t, w, n)
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchAppend, TornWrite: true, TornAt: tornAt, Times: 1})
			for i, err := range release() {
				if err == nil {
					t.Fatalf("commit %d reported durable through a torn batch append", i+1)
				}
			}
			if err := w.CommitDurable(99); !errors.Is(err, ErrWALBroken) {
				t.Fatalf("commit after torn batch = %v, want ErrWALBroken", err)
			}
			path := w.Path()
			w.Close()

			// Poisoning truncated the unsynced tail: no record of the
			// failed batch — whole or partial — remains in the file.
			recs, _, err := ScanLogFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("torn at %d: %d records of a failed batch survive in the file", tornAt, len(recs))
			}
			m, w2, info, err := RecoverManager(dir, 1)
			if err != nil {
				t.Fatalf("torn at %d: recovery refused the image: %v", tornAt, err)
			}
			w2.Close()
			_ = m
			if info.TornBytes != 0 {
				t.Fatalf("torn at %d: recovery saw %d torn bytes, want a clean (pre-truncated) log", tornAt, info.TornBytes)
			}
		})
	}
}

// TestGroupCommitSyncFailurePoisons: when the batch fsync *fails*, every
// commit in the batch fails and the WAL is poisoned — the commit records
// already in the file must never be resurrected by a later successful
// sync, and a crash image cut at the durable prefix holds none of them.
func TestGroupCommitSyncFailurePoisons(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	syncedAt := w.SyncedOffset()

	const n = 4
	release := holdBatch(t, w, n)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Times: 1})
	for i, err := range release() {
		if err == nil {
			t.Fatalf("commit %d reported durable through a failed fsync", i+1)
		}
	}
	if w.SyncedOffset() != syncedAt {
		t.Fatalf("durable prefix advanced across a failed fsync: %d != %d", w.SyncedOffset(), syncedAt)
	}
	// Poisoned: no later append or sync may quietly make the batch durable.
	if err := w.AppendAbort(99); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append after failed batch fsync = %v, want ErrWALBroken", err)
	}
	if err := w.CommitDurable(99); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("commit after failed batch fsync = %v, want ErrWALBroken", err)
	}
	path := w.Path()
	w.Close()

	// Crash at the durable prefix: none of the failed batch survives.
	if err := os.Truncate(path, syncedAt); err != nil {
		t.Fatal(err)
	}
	_, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 0 {
		t.Fatalf("failed batch resurrected: %d committed transactions recovered", info.Committed)
	}
}

// TestGroupCommitLostFsyncLosesBatch: a *skipped* batch fsync (the device
// lied) reports success, as a lost fsync always does —
// and a crash at the durable prefix then loses the whole batch at once.
func TestGroupCommitLostFsyncLosesBatch(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	syncedAt := w.SyncedOffset()

	const n = 3
	release := holdBatch(t, w, n)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Times: 1})
	for i, err := range release() {
		if err != nil {
			t.Fatalf("commit %d with lost fsync must report success: %v", i+1, err)
		}
	}
	if w.SyncedOffset() != syncedAt {
		t.Fatalf("durable prefix advanced despite lost fsync: %d != %d", w.SyncedOffset(), syncedAt)
	}
	// The WAL is healthy (the failure is silent); a later commit's fsync
	// makes everything durable, batch included.
	if err := w.CommitDurable(99); err != nil {
		t.Fatal(err)
	}
	if w.SyncedOffset() != w.Offset() {
		t.Fatalf("later fsync did not cover the log: synced %d, offset %d", w.SyncedOffset(), w.Offset())
	}
	path := w.Path()
	w.Close()

	// But had the crash come first, the whole batch would be gone.
	if err := os.Truncate(path, syncedAt); err != nil {
		t.Fatal(err)
	}
	_, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 0 {
		t.Fatalf("lost-fsync batch survived the crash: %d committed", info.Committed)
	}
}

// waitOffsetPast polls until the log's logical end moves past off — the
// sign that a committer's append has landed and it is now in (or headed
// into) its fsync.
func waitOffsetPast(t *testing.T, w *WAL, off int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.Offset() <= off {
		if time.Now().After(deadline) {
			t.Fatalf("log end stuck at %d", w.Offset())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitOneFlushInFlight pins the pipeline's invariant: at most
// one batch is between append and fsync verdict. Commit A's fsync stalls
// on the device (a 100ms delay; Skip makes it report success, since a
// plain delay fault also fails the fsync after sleeping); commits B and C
// arrive during the stall. Neither may append its commit record or reach
// a fsync before A's verdict — they queue — and once A is done they must
// flush together as one batch of two.
func TestGroupCommitOneFlushInFlight(t *testing.T) {
	defer faultpoint.Reset()
	w, err := CreateWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	stall := faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Delay: 100 * time.Millisecond, Times: 1})
	aErr := make(chan error, 1)
	go func() { aErr <- w.CommitDurable(1) }()
	for deadline := time.Now().Add(5 * time.Second); stall.Calls() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("commit A never reached its fsync")
		}
		time.Sleep(100 * time.Microsecond)
	}
	aEnd := w.Offset()

	// quiet fails as soon as a commit record lands or another fsync
	// begins while A's is in flight.
	quiet := func() {
		t.Helper()
		if got := w.Offset(); got != aEnd {
			t.Fatalf("commit records appended during A's fsync: log end %d, want %d", got, aEnd)
		}
		if got := stall.Calls(); got != 1 {
			t.Fatalf("%d more fsyncs began while A's was in flight, want none", got-1)
		}
	}
	// queued waits until n commits are pending, staying quiet meanwhile.
	queued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for w.PendingCommits() < n {
			quiet()
			if time.Now().After(deadline) {
				t.Fatalf("pending commits stuck at %d, want %d", w.PendingCommits(), n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// B then C, each counted before the next starts: FIFO record order.
	errs := make(chan error, 2)
	go func() { errs <- w.CommitDurable(2) }()
	queued(2)
	go func() { errs <- w.CommitDurable(3) }()
	queued(3)
	select {
	case err := <-aErr:
		t.Fatalf("A's stalled fsync returned (%v) before B and C queued; the checks would prove nothing", err)
	default:
	}
	quiet()

	if err := <-aErr; err != nil {
		t.Fatalf("commit A: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("commit B/C: %v", err)
		}
	}
	if got := stall.Calls(); got != 2 {
		t.Fatalf("B and C took %d fsyncs, want 1", got-1)
	}
	hs := reg.HistSnapshotOf(metrics.HistWALBatchSize)
	if hs.Count != 2 || hs.SumNS != 3 {
		t.Fatalf("batch-size histogram = count %d sum %d, want a batch of 1 then one of 2", hs.Count, hs.SumNS)
	}
	recs, _, err := ScanLogFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("log holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Kind != RecordCommit || r.Tx != uint64(i+1) {
			t.Fatalf("record %d = kind %d tx %d, want commit of tx %d", i, r.Kind, r.Tx, i+1)
		}
	}
}

// TestGroupCommitPoisonedWhileFsyncInFlight: batch A's fsync is in flight
// (and will report success — a skip fault stands in for it) when another
// transaction's redo append is torn, poisoning the WAL and truncating the
// unsynced tail — A's commit record included. A must report ErrWALBroken
// despite its own fsync verdict: its records are no longer in the file,
// so reporting success would claim durability for bytes recovery will
// never see.
func TestGroupCommitPoisonedWhileFsyncInFlight(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := w.Offset()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Delay: 100 * time.Millisecond, Times: 1})
	aErr := make(chan error, 1)
	go func() { aErr <- w.CommitDurable(1) }()
	waitOffsetPast(t, w, start)

	// While A stalls, a redo append is torn: the WAL is poisoned and the
	// unsynced tail — A's record and the torn bytes — is truncated.
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALAppend, TornWrite: true, TornAt: 3, Times: 1})
	if err := w.AppendSegCreate(1); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("torn redo append = %v, want injected error", err)
	}
	if err := <-aErr; !errors.Is(err, ErrWALBroken) {
		t.Fatalf("batch whose records were truncated mid-fsync = %v, want ErrWALBroken", err)
	}
	if w.Offset() != start || w.SyncedOffset() != start {
		t.Fatalf("poisoned tail not truncated: off %d synced %d, want %d", w.Offset(), w.SyncedOffset(), start)
	}
	path := w.Path()
	w.Close()

	recs, _, err := ScanLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records of failed commits survive in the truncated log", len(recs))
	}
}
