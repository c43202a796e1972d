package main

import (
	"strings"
	"testing"
	"time"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/oo1"
	"gom/internal/server"
	"gom/internal/swizzle"
)

// scenarioClient dials one client with its registry on the connection
// and the object manager, optionally through the timing wrapper.
func scenarioClient(t *testing.T, dep *deployment, rec *recorder, readahead int, seed int64) (*oo1.Client, *server.Client, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	conn, err := server.DialWith(dep.srv.Addr().String(), server.DialOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var srv server.Server = conn
	if rec != nil {
		srv = &timedServer{cl: conn, rec: rec}
	}
	c, err := oo1.NewClient(dep.db, core.Options{Server: srv, PageBufferPages: 96, Metrics: reg, ReadaheadPages: readahead}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c, conn, reg
}

func begin(c *oo1.Client, s swizzle.Strategy) error {
	if err := c.OM.Commit(); err != nil {
		return err
	}
	c.Begin(swizzle.NewSpec(s.String(), s))
	return nil
}

// runScenario drives one client through lookups and traversals under
// lazy and eager specs, then has a second client commit updates to pages
// the first one caches, so invalidations reach it, and traverses again.
// It returns the first client's registry.
func runScenario(t *testing.T, wrap bool) (metrics.Snapshot, *recorder) {
	cfg := oo1.DefaultConfig().Scaled(2000)
	cfg.Seed = 42
	dep, err := deploy(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	var rec *recorder
	if wrap {
		rec = newRecorder(time.Now())
		rec.beginOp(true)
	}
	c, _, reg := scenarioClient(t, dep, rec, 0, 7)
	writer, wconn, _ := scenarioClient(t, dep, nil, 0, 8)
	traverse := func(n, depth int) {
		for i := 0; i < n; i++ {
			if got, err := c.Traversal(depth); err != nil || got != visits(depth) {
				t.Fatalf("Traversal(%d) = %d, %v", depth, got, err)
			}
		}
	}
	steps := []func() error{
		func() error { return begin(c, swizzle.LIS) },
		func() error { return c.LookupN(300) },
		func() error { return begin(c, swizzle.LDS) },
		func() error { traverse(10, 4); return nil },
		func() error { return begin(c, swizzle.EDS) },
		func() error { traverse(5, 3); return nil },
		func() error {
			if _, err := wconn.BeginTx(); err != nil {
				return err
			}
			for i := 0; i < 20; i++ {
				if err := writer.UpdateOp(); err != nil {
					return err
				}
			}
			if err := writer.OM.Commit(); err != nil {
				return err
			}
			return wconn.CommitTx()
		},
		func() error { traverse(10, 4); return nil },
		func() error { return begin(c, swizzle.LIS) },
		func() error { return c.LookupN(300) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := c.OM.Verify(); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), rec
}

// TestWrapperTransparency checks that the traced run measures the same
// program: with the timing wrapper between the object manager and its
// connection, one client's registry counts — every counter, and RPCs sent
// by opcode — are identical to the unwrapped run's.
func TestWrapperTransparency(t *testing.T) {
	plain, _ := runScenario(t, false)
	wrapped, rec := runScenario(t, true)
	for _, c := range []metrics.Counter{metrics.CtrObjectFault, metrics.CtrSwizzleLIS, metrics.CtrSwizzleLDS, metrics.CtrSwizzleEDS, metrics.CtrCoherenceInvalApplied} {
		if plain.Count(c) == 0 {
			t.Errorf("scenario does not exercise %v", c)
		}
	}
	if plain.RPCFrames[1][metrics.RPCLookupBatch] == 0 {
		t.Error("scenario does not exercise batched lookups")
	}
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		if plain.Count(c) != wrapped.Count(c) {
			t.Errorf("%v: unwrapped %d, wrapped %d", c, plain.Count(c), wrapped.Count(c))
		}
	}
	for op := metrics.RPCOp(0); op < metrics.NumRPCOps; op++ {
		if p, w := plain.RPCFrames[1][op], wrapped.RPCFrames[1][op]; p != w {
			t.Errorf("rpc %v sent: unwrapped %d, wrapped %d", op, p, w)
		}
	}
	var rpcs int
	for _, s := range rec.spans {
		if strings.HasPrefix(s.name, rpcPrefix) {
			rpcs++
		}
	}
	if want := plain.RPCFrames[1][metrics.RPCLookup] + plain.RPCFrames[1][metrics.RPCReadPage]; int64(rpcs) < want {
		t.Errorf("wrapper recorded %d rpc spans, want at least %d", rpcs, want)
	}
}

// TestWrapperForwardsPageRuns checks the wrapper keeps the page-run
// capability readahead needs: a sequential scan issues ReadPages through
// it as it does without it.
func TestWrapperForwardsPageRuns(t *testing.T) {
	cfg := oo1.DefaultConfig().Scaled(2000)
	cfg.Seed = 42
	for _, wrap := range []bool{false, true} {
		dep, err := deploy(cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var rec *recorder
		if wrap {
			// Never switched on: readahead calls the server from its own
			// goroutine, which a recording recorder does not allow.
			rec = newRecorder(time.Now())
		}
		c, _, reg := scenarioClient(t, dep, rec, 8, 7)
		c.Begin(swizzle.NewSpec("scan", swizzle.LIS))
		if _, err := c.ReverseTraversal(1, 0); err != nil {
			t.Fatal(err)
		}
		if n := reg.Snapshot().RPCFrames[1][metrics.RPCReadPages]; n == 0 {
			t.Errorf("wrapped=%v: no ReadPages calls", wrap)
		}
		dep.close()
	}
}

// TestSelfTimes checks self time is the span minus the rpc: spans under
// it, at any depth.
func TestSelfTimes(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "traversal", parent: -1, start: 0, end: 10000},
		{name: "rpc:lookup", parent: 0, start: 1000, end: 3000},
		{name: "om_commit", parent: 0, start: 4000, end: 9000},
		{name: "rpc:write_page", parent: 2, start: 5000, end: 6000},
		{name: "traversal", parent: -1, start: 20000, end: 21000},
	}}
	got := r.selfTimes("traversal")
	if len(got) != 2 || got[0] != 7 || got[1] != 1 {
		t.Fatalf("selfTimes = %v, want [7 1]", got)
	}
}

// TestHistQuantile checks the interpolated histogram quantile stays
// inside the bucket holding the rank.
func TestHistQuantile(t *testing.T) {
	var s metrics.HistSnapshot
	s.Count = 100
	s.Buckets[12] = 100 // [2048, 4096) ns
	if q := histQuantileUS(s, 0.5); q < 2.048 || q > 4.096 {
		t.Fatalf("p50 = %v us, want within [2.048, 4.096)", q)
	}
}
