package core

import (
	"testing"

	"gom/internal/metrics"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// TestStrategyMetricsSemantics ties the observability counters to the
// strategy semantics of the cost model (Table 5): no-swizzling pays a ROT
// lookup on every dereference, direct strategies pay nothing once the
// reference is swizzled, and indirect strategies pay exactly one
// descriptor indirection per dereference.
func TestStrategyMetricsSemantics(t *testing.T) {
	const derefs = 10
	cases := []struct {
		strat       swizzle.Strategy
		rotPerDeref int64
		indPerDeref int64
	}{
		{swizzle.NOS, 1, 0},
		{swizzle.EDS, 0, 0},
		{swizzle.EIS, 0, 1},
		{swizzle.LDS, 0, 0},
		{swizzle.LIS, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.strat.String(), func(t *testing.T) {
			b := buildBase(t, 10)
			reg := metrics.New()
			om := b.om(t, Options{Metrics: reg})
			om.BeginApplication(appSpec(tc.strat))
			v := om.NewVar("p", b.part)
			if err := om.Load(v, b.parts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(v, "x"); err != nil {
				t.Fatal(err) // warm up: object fault plus any swizzling
			}
			warm := reg.Snapshot()
			for i := 0; i < derefs; i++ {
				if _, err := om.ReadInt(v, "x"); err != nil {
					t.Fatal(err)
				}
			}
			d := reg.Snapshot().Delta(warm)
			if got, want := d.Count(metrics.CtrROTLookup), tc.rotPerDeref*derefs; got != want {
				t.Errorf("steady-state rot_lookup = %d, want %d", got, want)
			}
			if got, want := d.Count(metrics.CtrDescriptorIndirection), tc.indPerDeref*derefs; got != want {
				t.Errorf("steady-state descriptor_indirection = %d, want %d", got, want)
			}
			if got, want := d.Count(metrics.CtrRead), int64(derefs); got != want {
				t.Errorf("read = %d, want %d", got, want)
			}

			// The swizzle counters must name the active strategy and only it.
			total := reg.Snapshot()
			var swizzled int64
			for _, c := range []metrics.Counter{
				metrics.CtrSwizzleEDS, metrics.CtrSwizzleEIS,
				metrics.CtrSwizzleLDS, metrics.CtrSwizzleLIS,
			} {
				swizzled += total.Count(c)
			}
			if tc.strat == swizzle.NOS {
				if swizzled != 0 {
					t.Errorf("NOS recorded %d swizzles", swizzled)
				}
			} else {
				own := total.Count(swizzleCounter(tc.strat))
				if own == 0 {
					t.Errorf("no swizzle{%v} events recorded", tc.strat)
				}
				if own != swizzled {
					t.Errorf("swizzle{%v} = %d but total swizzles = %d; foreign strategy counted", tc.strat, own, swizzled)
				}
			}
			mustVerify(t, om)
		})
	}
}

// TestMetricsCountObjectFaults checks the fault counters against a known
// workload: loading and reading n distinct cold parts faults each exactly
// once, and a second pass faults none.
func TestMetricsCountObjectFaults(t *testing.T) {
	const n = 8
	b := buildBase(t, n)
	reg := metrics.New()
	om := b.om(t, Options{Metrics: reg})
	om.BeginApplication(appSpec(swizzle.LDS))
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = om.NewVar("p", b.part)
		if err := om.Load(vars[i], b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := om.ReadInt(vars[i], "part-id"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Count(metrics.CtrObjectFault); got != n {
		t.Errorf("object_fault = %d, want %d", got, n)
	}
	for i := range vars {
		if _, err := om.ReadInt(vars[i], "part-id"); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Delta(snap).Count(metrics.CtrObjectFault); got != 0 {
		t.Errorf("resident re-reads faulted %d times", got)
	}
}

// TestDerefZeroAlloc pins the hot-path contract of the observability
// layer: a steady-state field read allocates nothing — both with no
// registry installed (nil-receiver no-ops) and with one recording.
func TestDerefZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *metrics.Registry
	}{
		{"NoMetrics", nil},
		{"WithMetrics", metrics.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := buildBase(t, 10)
			om := b.om(t, Options{Metrics: tc.reg})
			om.BeginApplication(appSpec(swizzle.EDS))
			v := om.NewVar("p", b.part)
			if err := om.Load(v, b.parts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(v, "x"); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := om.ReadInt(v, "x"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state ReadInt allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestDerefScoreboardZeroAlloc extends the zero-alloc contract to the
// full always-on stack: per-context scoreboard counting plus a live but
// unsampled span tracer. The head-sampling decision and the scoreboard
// increments must not heap-allocate on the hot path.
func TestDerefScoreboardZeroAlloc(t *testing.T) {
	b := buildBase(t, 10)
	// A huge sampling rate keeps every benchmark-loop root unsampled
	// while still exercising the live sampling branch.
	om := b.om(t, Options{Metrics: metrics.New(), Trace: trace.New(1<<30, 64)})
	om.BeginApplication(appSpec(swizzle.EDS))
	v := om.NewVar("p", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := om.ReadInt(v, "x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("deref with scoreboard + unsampled tracing allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTraversalVisitAllocs extends the zero-alloc contract to one whole
// steady-state OO1 Traversal visit (§6.3): declare the level's two local
// variables, follow connTo[i] and then to, read the part's x, y and type,
// and free both variables. With the scoreboard and an unsampled tracer
// live, the two Vars are the only allocations: resolving the variable
// contexts, registering and unregistering the variables, and pinning the
// home objects allocate nothing.
func TestTraversalVisitAllocs(t *testing.T) {
	for _, strat := range []swizzle.Strategy{swizzle.LDS, swizzle.LIS} {
		t.Run(strat.String(), func(t *testing.T) {
			b := buildBase(t, 10)
			om := b.om(t, Options{Metrics: metrics.New(), Trace: trace.New(1<<30, 64)})
			om.BeginApplication(appSpec(strat))
			root := om.NewVar("troot", b.part)
			if err := om.Load(root, b.parts[0]); err != nil {
				t.Fatal(err)
			}
			i := 0
			visit := func() {
				cv := om.NewVar("tconn", b.conn)
				pv := om.NewVar("tpart", b.part)
				if err := om.ReadElem(root, "connTo", i%3, cv); err != nil {
					t.Fatal(err)
				}
				if err := om.ReadRef(cv, "to", pv); err != nil {
					t.Fatal(err)
				}
				if _, err := om.ReadInt(pv, "x"); err != nil {
					t.Fatal(err)
				}
				if _, err := om.ReadInt(pv, "y"); err != nil {
					t.Fatal(err)
				}
				if _, err := om.ReadStr(pv, "type"); err != nil {
					t.Fatal(err)
				}
				om.FreeVar(pv)
				om.FreeVar(cv)
				i++
			}
			for k := 0; k < 3; k++ {
				visit() // warm up: fault each target, resolve the contexts
			}
			allocs := testing.AllocsPerRun(300, visit)
			if allocs != 2 {
				t.Errorf("steady-state traversal visit allocates %.1f objects, want 2 (the two Vars)", allocs)
			}
			if n := om.LiveVars(); n != 1 {
				t.Errorf("live variables after the visits = %d, want 1 (the root)", n)
			}
			mustVerify(t, om)
		})
	}
}

// TestVarContextFollowsApplication: a variable context is resolved once
// per application, so the same (type, name) pair takes the new spec's
// strategy — and relabels its scoreboard row — after BeginApplication,
// even though it was resolved under the previous spec.
func TestVarContextFollowsApplication(t *testing.T) {
	b := buildBase(t, 10)
	reg := metrics.New()
	om := b.om(t, Options{Metrics: reg})
	om.BeginApplication(appSpec(swizzle.LDS))
	if v := om.NewVar("p", b.part); v.Strategy() != swizzle.LDS {
		t.Fatalf("strategy under LDS = %v", v.Strategy())
	}
	if got := reg.Score("Part", "$p").Strategy(); got != "LDS" {
		t.Fatalf("$p row labelled %q under LDS", got)
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.LIS))
	v := om.NewVar("p", b.part)
	if v.Strategy() != swizzle.LIS {
		t.Errorf("strategy after switching to LIS = %v", v.Strategy())
	}
	if got := reg.Score("Part", "$p").Strategy(); got != "LIS" {
		t.Errorf("$p row labelled %q after switching to LIS", got)
	}
	// Counting goes to the same row: the handle is the registry's.
	before := reg.Score("Part", "$p").Count(metrics.ScoreDeref)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := om.Deref(v); err != nil {
		t.Fatal(err)
	}
	if got := reg.Score("Part", "$p").Count(metrics.ScoreDeref) - before; got != 1 {
		t.Errorf("$p deref count rose by %d, want 1", got)
	}
}

// TestVarContextFollowsMetrics: SetMetrics drops the resolved contexts,
// so variables declared after it count into the new registry, and
// variables declared before it keep counting into the old one.
func TestVarContextFollowsMetrics(t *testing.T) {
	b := buildBase(t, 10)
	oldReg := metrics.New()
	om := b.om(t, Options{Metrics: oldReg})
	om.BeginApplication(appSpec(swizzle.LIS))
	early := om.NewVar("p", b.part)
	if err := om.Load(early, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	newReg := metrics.New()
	om.SetMetrics(newReg)
	late := om.NewVar("p", b.part)
	if err := om.Load(late, b.parts[1]); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Var{early, late, late} {
		if err := om.Deref(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := newReg.Score("Part", "$p").Count(metrics.ScoreDeref); got != 2 {
		t.Errorf("new registry $p derefs = %d, want 2", got)
	}
	if got := newReg.Score("Part", "$p").Strategy(); got != "LIS" {
		t.Errorf("new registry $p row labelled %q, want LIS", got)
	}
	if got := oldReg.Score("Part", "$p").Count(metrics.ScoreDeref); got != 1 {
		t.Errorf("old registry $p derefs = %d, want 1", got)
	}
}

// BenchmarkDerefNoMetrics measures the steady-state dereference path with
// no registry installed; BenchmarkDerefWithMetrics is the same workload
// with every hook live. Comparing them bounds the cost of the always-on
// layer (the nil path must stay within a few percent).
// BenchmarkDerefScoreboard adds the per-context scoreboard and an
// installed-but-unsampled tracer — the "always-on" production shape.
func BenchmarkDerefNoMetrics(b *testing.B)   { benchDeref(b, nil, nil) }
func BenchmarkDerefWithMetrics(b *testing.B) { benchDeref(b, metrics.New(), nil) }
func BenchmarkDerefScoreboard(b *testing.B) {
	benchDeref(b, metrics.New(), trace.New(1<<30, 64))
}

func benchDeref(b *testing.B, reg *metrics.Registry, tr *trace.Tracer) {
	base := buildBase(b, 10)
	om := base.om(b, Options{Metrics: reg, Trace: tr})
	om.BeginApplication(appSpec(swizzle.EDS))
	v := om.NewVar("p", base.part)
	if err := om.Load(v, base.parts[0]); err != nil {
		b.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := om.ReadInt(v, "x"); err != nil {
			b.Fatal(err)
		}
	}
}
