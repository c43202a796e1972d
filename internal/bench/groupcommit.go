package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

func init() {
	register("groupcommit", "Commit throughput: serial fsync vs group commit under concurrent committers", runGroupCommit)
}

// runGroupCommit measures the WAL commit pipeline under concurrent
// committers: serial (a bench-local mutex lets one committer at a time
// through its append and commit, so every commit pays its own fsync — the
// fsync-on-commit design group commit replaced) against group (concurrent
// commits coalesce into one append+fsync under a leader). Each
// committer runs a closed loop of one small redo record (a 27-byte POT
// put — the smallest real record, so the shared fsync, not log
// bandwidth, is the measured cost) followed by a durable commit.
// Throughput is committed transactions per second of wall clock; the
// speedup column is group over serial at the same committer count.
//
// Page-image-heavy transactions (4 KiB of redo per update) are bound by
// fsync bandwidth, which batching cannot reduce — the durability
// experiment covers that cost; this one isolates the commit pipeline.
func runGroupCommit(o Opts) (*Result, error) {
	dur := 600 * time.Millisecond
	if o.Quick {
		dur = 120 * time.Millisecond
	}
	counts := []int{1, 2, 4, 8}
	if o.Workers > 0 {
		counts = []int{o.Workers}
	}

	res := &Result{
		ID:     "groupcommit",
		Title:  "Commit throughput under concurrent committers",
		Header: []string{"workers", "serial tx/s", "group tx/s", "speedup", "mean batch", "p99 flush µs"},
		Notes: []string{
			"serial = one committer at a time (one commit per fsync); group = concurrent commits coalesced by the commit leader into one fsync",
			"each tx logs one 27-byte redo record then commits: the fsync is the cost under study",
			"mean batch = commit records per group flush; p99 flush = batch append+fsync latency",
		},
	}

	for _, workers := range counts {
		serial, _, _, err := groupCommitMode(false, workers, dur)
		if err != nil {
			return nil, err
		}
		group, batchMean, flushP99, err := groupCommitMode(true, workers, dur)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", serial),
			fmt.Sprintf("%.0f", group),
			fmt.Sprintf("%.1fx", group/serial),
			fmt.Sprintf("%.1f", batchMean),
			fmt.Sprintf("%.0f", float64(flushP99.Nanoseconds())/1e3),
		})
	}
	return res, nil
}

// groupCommitMode runs one (pipeline, committers) cell and returns
// commits/s plus the group pipeline's mean batch size and p99 flush
// latency.
func groupCommitMode(group bool, workers int, dur time.Duration) (float64, float64, time.Duration, error) {
	dir, err := os.MkdirTemp("", "gom-groupcommit-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	w, err := storage.CreateWAL(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	var (
		serial   sync.Mutex // held across append+commit when !group
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		total    int64
	)
	start := time.Now()
	stop := start.Add(dur)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			id, err := oid.New(1, uint64(i+1))
			if err != nil {
				fail(err)
				return
			}
			addr := storage.PAddr{Page: page.NewPageID(1, uint64(i+1)), Slot: 0}
			n := int64(0)
			for time.Now().Before(stop) {
				// Distinct tx ids per committer; the log is throwaway.
				tx := uint64(i+1)<<32 | uint64(n+1)
				if !group {
					serial.Lock()
				}
				err := w.AppendPotPut(tx, id, addr)
				if err == nil {
					err = w.CommitDurable(tx)
				}
				if !group {
					serial.Unlock()
				}
				if err != nil {
					fail(err)
					return
				}
				n++
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	rate := float64(total) / elapsed.Seconds()

	bs := reg.HistSnapshotOf(metrics.HistWALBatchSize)
	batchMean := 0.0
	if bs.Count > 0 {
		batchMean = float64(bs.SumNS) / float64(bs.Count)
	}
	flush := reg.HistSnapshotOf(metrics.HistWALFlushLatency)
	return rate, batchMean, flush.Quantile(0.99), nil
}
