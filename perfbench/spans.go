package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
)

// Span names. Operation spans are recorded around the calls the
// benchmark makes into oo1 and core; rpc: spans around every
// server.Server method the object manager calls and every transaction
// RPC the benchmark issues itself.
const (
	spanLookup      = "lookup"
	spanTraversal   = "traversal"
	spanUpdateTx    = "update_tx"
	spanPhaseSwitch = "phase_switch"
	spanPhaseCycle  = "phase_cycle"
	spanUpdateOp    = "update"
	spanOMCommit    = "om_commit"
	spanBegin       = "begin"

	rpcPrefix = "rpc:"
)

// span is one timed interval on a client goroutine. Times are
// nanoseconds since the recorder's epoch; parent is the index of the
// enclosing span in the same recorder, or -1 for an operation root.
type span struct {
	name       string
	op         int64
	parent     int32
	start, end int64
}

// recorder keeps one client's spans in memory until the run ends. It
// belongs to the client's goroutine: the object manager calls its server
// only from the goroutine running the operation (readahead is off), so
// no locking is needed. Recording is switched per operation; a switched
// off recorder costs one branch per call.
type recorder struct {
	epoch time.Time
	on    bool
	op    int64
	spans []span
	stack []int32
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch}
}

// beginOp starts a new operation ID and decides whether it is recorded.
func (r *recorder) beginOp(record bool) {
	if r == nil {
		return
	}
	r.op++
	r.on = record
}

// begin opens a span under the innermost open span and returns its index
// (-1 when not recording).
func (r *recorder) begin(name string) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, op: r.op, parent: parent, start: int64(time.Since(r.epoch))})
	r.stack = append(r.stack, i)
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, fn func() error) error {
	i := r.begin(name)
	err := fn()
	r.end(i)
	return err
}

// selfTimes returns, for every recorded span named name, its duration
// minus the durations of the rpc: spans beneath it — the time the client
// spent in its own code rather than waiting on the wire and server. RPC
// spans never nest in one another and run on one goroutine, so their
// durations add up to the part of the interval they cover.
func (r *recorder) selfTimes(name string) []float64 {
	if r == nil {
		return nil
	}
	rpc := make([]int64, len(r.spans))
	for i := len(r.spans) - 1; i >= 0; i-- {
		s := r.spans[i]
		if strings.HasPrefix(s.name, rpcPrefix) {
			rpc[i] += s.end - s.start
		}
		if s.parent >= 0 {
			rpc[s.parent] += rpc[i]
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-rpc[i])/1e3)
		}
	}
	return out
}

// durations returns the durations in microseconds of every span named
// name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// writeSpans writes every recorder's spans to path as tab-separated
// lines: client, span index, parent index, op ID, name, start ns, end ns.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\tspan\tparent\top\tname\tstart_ns\tend_ns")
	for c, r := range recs {
		if r == nil {
			continue
		}
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, i, s.parent, s.op, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedServer is the client's server.Client with every Server method
// wrapped in an rpc: span. It forwards the optional capabilities the
// object manager type-asserts for — batched lookups, page runs and the
// coherence hooks — so the wrapped object manager batches, reads ahead
// and stays coherent exactly as the unwrapped one does.
type timedServer struct {
	cl  *server.Client
	rec *recorder
}

var (
	_ server.Server        = (*timedServer)(nil)
	_ server.BatchLookuper = (*timedServer)(nil)
	_ server.PageRunReader = (*timedServer)(nil)
)

func (t *timedServer) Lookup(id oid.OID) (storage.PAddr, error) {
	i := t.rec.begin("rpc:lookup")
	a, err := t.cl.Lookup(id)
	t.rec.end(i)
	return a, err
}

func (t *timedServer) ReadPage(pid page.PageID) ([]byte, error) {
	i := t.rec.begin("rpc:read_page")
	img, err := t.cl.ReadPage(pid)
	t.rec.end(i)
	return img, err
}

func (t *timedServer) WritePage(pid page.PageID, img []byte) error {
	i := t.rec.begin("rpc:write_page")
	err := t.cl.WritePage(pid, img)
	t.rec.end(i)
	return err
}

func (t *timedServer) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	i := t.rec.begin("rpc:allocate")
	id, a, err := t.cl.Allocate(seg, rec)
	t.rec.end(i)
	return id, a, err
}

func (t *timedServer) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	i := t.rec.begin("rpc:allocate_near")
	id, a, err := t.cl.AllocateNear(seg, neighbor, rec)
	t.rec.end(i)
	return id, a, err
}

func (t *timedServer) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	i := t.rec.begin("rpc:update_object")
	a, err := t.cl.UpdateObject(id, rec)
	t.rec.end(i)
	return a, err
}

func (t *timedServer) NumPages(seg uint16) (int, error) {
	i := t.rec.begin("rpc:num_pages")
	n, err := t.cl.NumPages(seg)
	t.rec.end(i)
	return n, err
}

func (t *timedServer) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	i := t.rec.begin("rpc:lookup_batch")
	a, ok, err := t.cl.LookupBatch(ids)
	t.rec.end(i)
	return a, ok, err
}

func (t *timedServer) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	i := t.rec.begin("rpc:read_pages")
	imgs, err := t.cl.ReadPages(pid, n)
	t.rec.end(i)
	return imgs, err
}

func (t *timedServer) HasCoherence() bool { return t.cl.HasCoherence() }

func (t *timedServer) OnInvalidate(fn func(epoch uint64, pids []page.PageID)) {
	t.cl.OnInvalidate(fn)
}

func (t *timedServer) OnLeaseExpired(fn func()) { t.cl.OnLeaseExpired(fn) }
