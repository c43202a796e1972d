package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"gom/internal/metrics"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally sums attempted and failed client-visible operations.
func (win *window) tally() (attempted, failed int64) {
	for _, st := range win.stats {
		attempted += st.attempted
		failed += st.failed
	}
	return attempted, failed
}

// latencies pools the completed-operation latencies of every client.
func (win *window) latencies(name string) []float64 {
	var out []float64
	for _, st := range win.stats {
		out = append(out, st.lat[name]...)
	}
	return out
}

// rate is the completed-operation rate of name summed over the clients:
// each closed-loop client's count over the time up to its last completed
// unit.
func (win *window) rate(name string) float64 {
	var r float64
	for _, st := range win.stats {
		if n := len(st.lat[name]); n > 0 {
			r += float64(n) / st.end.Sub(win.start).Seconds()
		}
	}
	return r
}

// endToEnd returns the gated metrics: set-up time, the primary
// operation's rate and median latency, and the live heap.
func endToEnd(w *workload, win *window) map[string]metric {
	return map[string]metric{
		"setup_s":   {median(win.setupsS), "s"},
		"ops_per_s": {win.rate(w.primary), "1/s"},
		"op_p50_us": {median(win.latencies(w.primary)), "us"},
		"heap_mb":   {win.heapMB, "MB"},
	}
}

// minTailSamples is the sample count below which no p99 is reported.
const minTailSamples = 1000

// printNamed writes every end-to-end metric that applies to the workload
// under its per-operation name, wall clock.
func printNamed(out io.Writer, w *workload, win *window) {
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(out, "%-22s %14.3f %-3s (wall clock)\n", name, v, unit)
	}
	line("setup_s", median(win.setupsS), "s")
	// Inside a phase cycle an operation's rate is a share of the cycle,
	// not a throughput; the cycle has its own.
	phased := hasRole(w, rolePhase)
	for _, op := range []string{spanLookup, spanTraversal, spanUpdateTx, spanPhaseSwitch} {
		lat := win.latencies(op)
		if len(lat) == 0 {
			continue
		}
		if !phased {
			line(op+"_per_s", win.rate(op), "1/s")
		}
		line(op+"_p50_us", median(lat), "us")
		if len(lat) >= minTailSamples {
			line(op+"_p99_us", quantile(lat, 0.99), "us")
		}
	}
	if cycles := win.latencies(spanPhaseCycle); len(cycles) > 0 {
		line("phase_cycle_per_s", win.rate(spanPhaseCycle), "1/s")
		line("phase_cycle_p50_ms", median(cycles)/1e3, "ms")
	}
	attempted, failed := win.tally()
	line("error_rate", float64(failed)/float64(max(attempted, 1)), "1")
	line("heap_mb", win.heapMB, "MB")
}

// rpcOps are the RPCs broken out per layer.
var rpcOps = []metrics.RPCOp{metrics.RPCLookup, metrics.RPCReadPage, metrics.RPCWritePage, metrics.RPCTxBegin, metrics.RPCTxCommit}

// histQuantileUS estimates a quantile of a registry histogram in
// microseconds, interpolating linearly inside the power-of-two bucket the
// rank falls in (the registry itself reports only bucket bounds).
func histQuantileUS(h metrics.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = math.Ldexp(1, i-1)
			}
			hi := math.Ldexp(1, i)
			return (lo + (hi-lo)*(rank-seen)/float64(n)) / 1e3
		}
		seen += float64(n)
	}
	return float64(metrics.BucketBound(metrics.NumHistBuckets-1)) / 1e3
}

// histMeanUS returns a registry histogram's exact mean in microseconds.
func histMeanUS(h metrics.HistSnapshot) float64 { return perOp(h.SumNS, h.Count) / 1e3 }

// perOp divides by the operation count, 0 without operations.
func perOp(n int64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// perLayer returns the per-layer metrics of a traced window. Counts come
// from the registries' deltas over the window; times of client calls and
// client self time come from the recorded spans; "per op" is per
// client-visible operation (lookup, traversal, update transaction, phase
// switch) attempted in the window.
func perLayer(w *workload, s *session, win *window) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ops, _ := win.tally()
	var cli metrics.Snapshot
	for _, d := range win.clients {
		for i := range cli.Counters {
			cli.Counters[i] += d.Counters[i]
		}
		for dir := range cli.RPCFrames {
			for i := range cli.RPCFrames[dir] {
				cli.RPCFrames[dir][i] += d.RPCFrames[dir][i]
			}
		}
	}
	srv := win.srv
	var recs []*recorder
	for _, c := range s.clients {
		recs = append(recs, c.rec)
	}
	pooled := func(f func(*recorder) []float64) []float64 {
		var out []float64
		for _, r := range recs {
			out = append(out, f(r)...)
		}
		return out
	}

	// core
	for _, op := range []string{spanLookup, spanTraversal, spanUpdateTx, spanPhaseSwitch} {
		name := op
		put("core.self_us."+op, median(pooled(func(r *recorder) []float64 { return r.selfTimes(name) })), "us")
	}
	cc := func(c metrics.Counter) int64 { return cli.Counters[c] }
	put("core.object_faults_per_op", perOp(cc(metrics.CtrObjectFault), ops), "count/op")
	put("core.swizzles_per_op", perOp(cc(metrics.CtrSwizzleEDS)+cc(metrics.CtrSwizzleEIS)+cc(metrics.CtrSwizzleLDS)+cc(metrics.CtrSwizzleLIS), ops), "count/op")
	put("core.unswizzles_per_op", perOp(cc(metrics.CtrUnswizzle), ops), "count/op")
	put("core.displacements_per_op", perOp(cc(metrics.CtrDisplacement), ops), "count/op")
	put("core.rot_lookups_per_op", perOp(cc(metrics.CtrROTLookup), ops), "count/op")

	// buffer
	hits, misses := cc(metrics.CtrBufferHit), cc(metrics.CtrBufferMiss)
	put("buffer.hit_ratio", perOp(hits, hits+misses), "ratio")
	put("buffer.misses_per_op", perOp(misses, ops), "count/op")
	put("buffer.evictions_per_op", perOp(cc(metrics.CtrBufferEvict), ops), "count/op")

	// client and server, per RPC. Wire time is a difference of means:
	// means add up, and the server's exact histogram sums avoid the
	// bucket resolution its medians have.
	for _, op := range rpcOps {
		name := op.String()
		calls := pooled(func(r *recorder) []float64 { return r.durations(rpcPrefix + name) })
		wire := 0.0
		if h := srv.RPC[op]; len(calls) > 0 && h.Count > 0 {
			wire = mean(calls) - histMeanUS(h)
		}
		put("client.calls_per_op."+name, perOp(cli.RPCFrames[1][op], ops), "count/op")
		put("client.call_us."+name, median(calls), "us")
		put("client.wire_us."+name, wire, "us")
		put("server.handle_us."+name, histQuantileUS(srv.RPC[op], 0.5), "us")
	}
	put("client.retries", float64(cc(metrics.CtrRPCRetry)), "count")
	put("server.errors", float64(srv.Count(metrics.CtrRPCError)), "count")

	// coherence
	var commits, readerOps, applied int64
	for i, st := range win.stats {
		commits += st.committed
		if s.clients[i].spec.role == roleReader {
			readerOps += st.attempted
			applied += win.clients[i].Counters[metrics.CtrCoherenceInvalApplied]
		}
	}
	// The commit's ack wait is the server's commit handling beyond the
	// durable commit itself, as a difference of means.
	ackWait := 0.0
	if e2e := srv.Hists[metrics.HistCommitE2E]; e2e.Count > 0 {
		ackWait = histMeanUS(srv.RPC[metrics.RPCTxCommit]) - histMeanUS(e2e)
	}
	put("coherence.inval_per_commit", perOp(srv.Count(metrics.CtrCoherenceInvalSent), commits), "count/commit")
	put("coherence.applied_per_reader_op", perOp(applied, readerOps), "count/op")
	put("coherence.ack_timeouts", float64(srv.Count(metrics.CtrCoherenceAckTimeout)), "count")
	put("coherence.lease_expiries", float64(cc(metrics.CtrCoherenceLeaseExpired)), "count")
	put("coherence.ack_wait_us", ackWait, "us")

	// storage
	put("storage.commit_e2e_us", histQuantileUS(srv.Hists[metrics.HistCommitE2E], 0.5), "us")
	put("storage.fsync_us", histQuantileUS(srv.Hists[metrics.HistPhaseFsync], 0.5), "us")
	put("storage.append_us", histQuantileUS(srv.Hists[metrics.HistPhaseAppend], 0.5), "us")
	put("storage.enqueue_wait_us", histQuantileUS(srv.Hists[metrics.HistPhaseEnqueueWait], 0.5), "us")
	put("storage.wal_bytes_per_commit", perOp(srv.Count(metrics.CtrWALAppendBytes), commits), "B/commit")
	put("storage.fsyncs_per_commit", perOp(srv.Count(metrics.CtrWALFsync), commits), "count/commit")
	batches := srv.Hists[metrics.HistWALBatchSize]
	put("storage.batch_size", perOp(batches.SumNS, batches.Count), "count")
	put("storage.disk_read_bytes_per_op", perOp(srv.Count(metrics.CtrDiskReadBytes), ops), "B/op")
	put("storage.zero_copy_ratio", perOp(srv.Count(metrics.CtrPageZeroCopyHit), srv.Count(metrics.CtrDiskPageRead)), "ratio")

	// process
	secs := win.after.at.Sub(win.before.at).Seconds()
	put("process.alloc_bytes_per_op", perOp(int64(win.after.mem.TotalAlloc-win.before.mem.TotalAlloc), ops), "B/op")
	put("process.allocs_per_op", perOp(int64(win.after.mem.Mallocs-win.before.mem.Mallocs), ops), "count/op")
	put("process.gc_per_s", float64(win.after.mem.NumGC-win.before.mem.NumGC)/secs, "1/s")
	put("process.cpu_util", (win.after.cpu-win.before.cpu).Seconds()/secs/float64(runtime.NumCPU()), "ratio")

	// trace: traced against untraced units of the primary operation's
	// clients, as a throughput ratio (mean unit durations).
	var traced, untraced []float64
	for i, st := range win.stats {
		if primaryRole(w, s.clients[i].spec.role) {
			traced = append(traced, st.traced...)
			untraced = append(untraced, st.untraced...)
		}
	}
	overhead := 0.0
	if mt, mu := mean(traced), mean(untraced); mt > 0 && mu > 0 {
		overhead = (mt/mu - 1) * 100
	}
	put("trace.overhead_pct", overhead, "%")
	return m
}

// primaryRole reports whether clients of role r run the workload's
// primary operation.
func primaryRole(w *workload, r role) bool {
	switch w.primary {
	case spanUpdateTx:
		return r == roleWriter
	default:
		return true
	}
}

// printLayers writes the per-layer metrics in name order.
func printLayers(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.3f %s\n", n, m[n].Value, m[n].Unit)
	}
}
