package server

import (
	"fmt"
	"time"

	"gom/internal/health"
	"gom/internal/storage"
)

// Default cadence and stall horizon for the server watchdog. A check
// round every healthInterval keeps /healthz no staler than half a
// second; a commit leader whose cycle has not finished within
// healthStallAfter is reported stalled.
const (
	healthInterval   = 500 * time.Millisecond
	healthStallAfter = 2 * time.Second
)

// commitQueueDegradedAt: the commit_queue check degrades when this many
// commits are waiting for or inside a flush — twice what one flush takes.
const commitQueueDegradedAt = 512

// versionBytesDegradedFrac: the version_store check degrades when
// retained before-image bytes reach this fraction of the configured cap.
const versionBytesDegradedFrac = 0.9

// HealthChecks builds the server's watchdog check set. stallAfter is the
// horizon after which a non-progressing WAL writer is reported stalled
// (<=0 selects healthStallAfter). The checks are cheap — atomic loads
// and short critical sections — and safe to run concurrently with
// serving traffic.
func (s *TCPServer) HealthChecks(stallAfter time.Duration) []health.Check {
	if stallAfter <= 0 {
		stallAfter = healthStallAfter
	}
	mgr := s.mgr
	return []health.Check{
		{Name: "wal_writer", Run: func() (health.Status, string) {
			return walWriterHealth(mgr.WAL(), stallAfter, time.Now())
		}},
		{Name: "commit_queue", Run: func() (health.Status, string) {
			return commitQueueHealth(mgr.WAL())
		}},
		{Name: "version_store", Run: func() (health.Status, string) {
			return versionStoreHealth(mgr.Versions())
		}},
		{Name: "pooled_frames", Run: poolHealth},
	}
}

// walWriterHealth judges the log writer's liveness from the commit
// leader's heartbeats: a leader cycle (gather, append, fsync) running for
// longer than stallAfter is a stall. Committers are queued only while a
// leader is in a cycle, so an idle WAL is healthy no matter how old its
// last beat.
func walWriterHealth(w *storage.WAL, stallAfter time.Duration, now time.Time) (health.Status, string) {
	if w == nil {
		return health.OK, "no WAL attached"
	}
	st := w.GroupCommitStatus()
	if !st.BusySince.IsZero() {
		if busy := now.Sub(st.BusySince); busy > stallAfter {
			return health.Stalled, fmt.Sprintf("flush in progress for %v (stall horizon %v)", busy.Round(time.Millisecond), stallAfter)
		}
	}
	if st.LastBeat.IsZero() {
		return health.OK, "no flush yet"
	}
	return health.OK, fmt.Sprintf("last flush %v ago, %d pending", now.Sub(st.LastBeat).Round(time.Millisecond), st.Pending)
}

// commitQueueHealth degrades when commitQueueDegradedAt or more commits
// are pending — commits are arriving faster than flushes drain them, the
// precursor of enqueue-wait tail latency.
func commitQueueHealth(w *storage.WAL) (health.Status, string) {
	if w == nil {
		return health.OK, "no WAL attached"
	}
	st := w.GroupCommitStatus()
	detail := fmt.Sprintf("%d pending (degraded at %d)", st.Pending, commitQueueDegradedAt)
	if st.Pending >= commitQueueDegradedAt {
		return health.Degraded, detail
	}
	return health.OK, detail
}

// versionStoreHealth degrades when retained before-image bytes near the
// configured cap (new snapshots would soon be refused). The detail line
// carries retention size and snapshot lag either way.
func versionStoreHealth(vs *storage.VersionStore) (health.Status, string) {
	if vs == nil {
		return health.OK, "no version store"
	}
	st := vs.Stats()
	lag := st.Stable - st.Watermark
	detail := fmt.Sprintf("%d pages / %d bytes retained, %d snapshots, lag %d", st.Pages, st.Bytes, st.Snapshots, lag)
	if cap := vs.CapBytes(); cap > 0 && float64(st.Bytes) >= versionBytesDegradedFrac*float64(cap) {
		return health.Degraded, detail + fmt.Sprintf(" (>=%d%% of %d-byte cap)", int(versionBytesDegradedFrac*100), cap)
	}
	return health.OK, detail
}

// poolHealth degrades on a negative pooled-object balance — a double
// put, which corrupts the pools. Positive balances are normal while
// requests are in flight, so only report them. Off unless pool debug
// accounting is enabled.
func poolHealth() (health.Status, string) {
	if !poolDebug.Load() {
		return health.OK, "pool accounting off"
	}
	bufs, frames := PoolOutstanding()
	detail := fmt.Sprintf("%d bufs / %d frames outstanding", bufs, frames)
	if bufs < 0 || frames < 0 {
		return health.Degraded, detail + " (negative balance: double put)"
	}
	return health.OK, detail
}
