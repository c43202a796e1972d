package main

import (
	"fmt"
	"time"

	"gom/internal/swizzle"
)

// role is what a client does in a loop.
type role int

const (
	roleLookup    role = iota // OO1 Lookup
	roleTraversal             // OO1 Traversal(7)
	roleWriter                // durable update transactions
	roleReader                // Traversal(3) beside the writer, no transaction
	rolePhase                 // traversal/lookup phase cycles with a spec switch between
)

func (r role) String() string {
	return [...]string{"lookup", "traversal", "writer", "reader", "phase"}[r]
}

// OO1 operation shapes.
const (
	hotDepth       = 7 // Traversal(7): 3,280 visits
	readerDepth    = 3 // Traversal(3): 40 visits
	phaseDepth     = 5 // Traversal(5): 364 visits
	updatesPerTx   = 4
	phaseTraverses = 20
	phaseLookups   = 1000
)

// workload is one traffic mix. Every client runs a closed loop: it
// issues its next operation only after the previous one returned.
type workload struct {
	name    string
	parts   int
	clients []clientSpec
	// warm is how many loop units each client runs, untimed, before the
	// window, indexed like clients.
	warm []int
	// primary names the operation the gated metrics describe.
	primary string
}

var workloads = []workload{
	// The base is about 16x the buffer, so nearly every lookup faults
	// over the wire: the v2 client, server handling, store reads and
	// buffer misses do most of the work.
	{
		name:    "lookup-miss",
		parts:   20000,
		clients: []clientSpec{{roleLookup, 64, swizzle.LIS}, {roleLookup, 64, swizzle.LIS}},
		warm:    []int{2000, 2000},
		primary: spanLookup,
	},
	// The 2,000-part base (about 101 pages) fits the buffer, so after
	// warm-up swizzled dereferences in core do almost everything: the
	// control for wire changes. A 20,000-part base does not level off
	// within a window.
	{
		name:    "traverse-hot",
		parts:   2000,
		clients: []clientSpec{{roleTraversal, 1000, swizzle.LDS}, {roleTraversal, 1000, swizzle.LDS}},
		warm:    []int{100, 100},
		primary: spanTraversal,
	},
	// Writes beside reads: durable transactions exercise write-back,
	// locks, the WAL, group commit and fsync, and the reader's
	// traversals read the Connection pages the writer rewrites, so
	// commits push invalidations and wait for acks. (A Lookup reader
	// touches only Part and extent pages and would get none.)
	{
		name:    "update-commit",
		parts:   20000,
		clients: []clientSpec{{roleWriter, 200, swizzle.LIS}, {roleReader, 200, swizzle.LIS}},
		warm:    []int{50, 200},
		primary: spanUpdateTx,
	},
	// The only workload that switches the swizzling spec per
	// application and displaces directly swizzled objects through RRLs
	// as the working set moves; steady-state OO1 alone hides what
	// adaptation costs.
	{
		name:    "phase-shift",
		parts:   20000,
		clients: []clientSpec{{rolePhase, 256, swizzle.LDS}},
		warm:    []int{1},
		primary: spanPhaseCycle,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// visits is the number of part visits an OO1 Traversal of the given
// depth makes over 3 connections per part: (3^(depth+1)-1)/2.
func visits(depth int) int {
	n := 1
	for i := 0; i <= depth; i++ {
		n *= 3
	}
	return (n - 1) / 2
}

// opStats is one client's record of a window: latencies of completed
// operations by span name in microseconds, attempted and failed
// client-visible operations, and committed transactions.
type opStats struct {
	lat       map[string][]float64
	attempted int64
	failed    int64
	committed int64
	// end is when the last loop unit returned; traced/untraced hold unit
	// durations by recording mode (traced runs only).
	end              time.Time
	traced, untraced []float64
}

func newStats() *opStats { return &opStats{lat: map[string][]float64{}} }

// op runs one client-visible operation inside a span, times it, and
// accounts for it: an error from the operation counts as a failed
// operation. It reports whether the operation succeeded.
func (c *client) op(st *opStats, name string, fn func() error) bool {
	st.attempted++
	t0 := time.Now()
	err := c.rec.timed(name, fn)
	d := time.Since(t0)
	if err != nil {
		st.failed++
		return false
	}
	st.lat[name] = append(st.lat[name], float64(d)/1e3)
	return true
}

// traversal runs one Traversal and checks its visit count.
func (c *client) traversal(st *opStats, depth int) error {
	var got int
	ok := c.op(st, spanTraversal, func() error {
		var err error
		got, err = c.oo.Traversal(depth)
		return err
	})
	if ok && got != visits(depth) {
		return fmt.Errorf("%s client: Traversal(%d) made %d visits, want %d", c.spec.role, depth, got, visits(depth))
	}
	return nil
}

// updateTx runs one durable update transaction: BeginTx, 4 OO1 Updates,
// OM.Commit (write-back of the dirty pages inside the transaction) and
// CommitTx. A failed transaction is rolled back on the server and its
// client state discarded, and counts as one failed operation.
func (c *client) updateTx(st *opStats) {
	ok := c.op(st, spanUpdateTx, func() error {
		err := c.rec.timed("rpc:tx_begin", func() error {
			_, err := c.conn.BeginTx()
			return err
		})
		for k := 0; err == nil && k < updatesPerTx; k++ {
			err = c.rec.timed(spanUpdateOp, c.oo.UpdateOp)
		}
		if err == nil {
			err = c.rec.timed(spanOMCommit, c.oo.OM.Commit)
		}
		if err == nil {
			err = c.rec.timed("rpc:tx_commit", c.conn.CommitTx)
		}
		return err
	})
	if !ok {
		// The transaction may never have begun; an abort error then says
		// only that there is nothing to roll back.
		_ = c.conn.AbortTx()
		c.oo.OM.Discard()
		return
	}
	st.committed++
}

// phaseSwitch ends the current application and begins the next one
// under another swizzling spec: the paper's per-application adaptation.
func (c *client) phaseSwitch(st *opStats, s swizzle.Strategy) {
	c.op(st, spanPhaseSwitch, func() error {
		if err := c.rec.timed(spanOMCommit, c.oo.OM.Commit); err != nil {
			return err
		}
		return c.rec.timed(spanBegin, func() error {
			c.oo.Begin(swizzle.NewSpec(s.String(), s))
			return nil
		})
	})
}

// unit runs one loop unit of the client's role: one operation, or for
// the phase role one whole cycle.
func (c *client) unit(st *opStats) error {
	switch c.spec.role {
	case roleLookup:
		c.op(st, spanLookup, c.oo.Lookup)
	case roleTraversal:
		return c.traversal(st, hotDepth)
	case roleReader:
		return c.traversal(st, readerDepth)
	case roleWriter:
		c.updateTx(st)
	case rolePhase:
		t0 := time.Now()
		i := c.rec.begin(spanPhaseCycle)
		c.phaseSwitch(st, swizzle.LDS)
		for k := 0; k < phaseTraverses; k++ {
			if err := c.traversal(st, phaseDepth); err != nil {
				return err
			}
		}
		c.phaseSwitch(st, swizzle.LIS)
		for k := 0; k < phaseLookups; k++ {
			c.op(st, spanLookup, c.oo.Lookup)
		}
		c.rec.end(i)
		st.lat[spanPhaseCycle] = append(st.lat[spanPhaseCycle], float64(time.Since(t0))/1e3)
	}
	return nil
}

// loop runs units until the deadline (or n units when n > 0). In a traced
// run every other unit is recorded, so traced and untraced units
// interleave and their durations give the tracing overhead.
func (c *client) loop(st *opStats, deadline time.Time, n int) error {
	for u := 0; ; u++ {
		if n > 0 && u == n || n == 0 && !time.Now().Before(deadline) {
			return nil
		}
		record := u%2 == 0
		c.rec.beginOp(record)
		t0 := time.Now()
		if err := c.unit(st); err != nil {
			return err
		}
		st.end = time.Now()
		if c.rec != nil {
			d := float64(st.end.Sub(t0)) / 1e3
			if record {
				st.traced = append(st.traced, d)
			} else {
				st.untraced = append(st.untraced, d)
			}
		}
	}
}
