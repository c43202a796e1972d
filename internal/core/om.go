// Package core implements the adaptable object manager of GOM (paper §4):
// a client-side run-time that manages main-memory resident persistent
// objects under any of the five reference-management strategies (NOS, EDS,
// EIS, LDS, LIS), adjustable per application, per type, and per context,
// with full support for replacing swizzled objects from the buffers.
//
// Architecture (paper §2, Fig. 1): the object manager sits on the client,
// above a page buffer pool and optionally an object cache (copy
// architecture), and below the application, which accesses objects only
// through references held in program variables (Var). Any I/O is implicit.
//
// Cost accounting: every operation charges the client's sim.Meter with the
// paper-calibrated costs, so experiments reproduce the paper's numbers
// deterministically; the same code paths run for real, so testing.B
// benches measure genuine work.
package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"gom/internal/buffer"
	"gom/internal/latch"
	"gom/internal/metrics"
	"gom/internal/objcache"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/rot"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// Errors returned by the object manager.
var (
	ErrNilRef     = errors.New("core: dereference of nil reference")
	ErrNoField    = errors.New("core: no such field")
	ErrWrongKind  = errors.New("core: field kind mismatch")
	ErrClosedVar  = errors.New("core: use of freed or stale variable")
	ErrNoCapacity = errors.New("core: buffers exhausted (pinned working set too large)")
)

// Tracer receives one record per object-manager call, in the format the
// monitoring facility consumes (§7.1, Fig. 20a: OID, attribute, r/w).
type Tracer interface {
	Record(id oid.OID, attr string, write bool)
}

// Options configures an object manager.
type Options struct {
	// Server is the page server (required).
	Server server.Server
	// Schema describes the object base's types (required).
	Schema *object.Schema
	// Costs overrides the simulated cost table (nil = paper defaults).
	Costs *sim.CostTable
	// PageBufferPages is the page pool capacity in frames (default 1000,
	// the paper's §6.1.1 setting).
	PageBufferPages int
	// ObjectCache enables the copy architecture: objects are copied from
	// pages into a dedicated cache of ObjectCacheBytes (§6.6.2).
	ObjectCache      bool
	ObjectCacheBytes int
	// LazyUponDereference switches lazy swizzling to the upon-dereference
	// variant (§3.2.1); the default is upon-discovery, as in GOM.
	LazyUponDereference bool
	// RetainDescriptors disables reclaiming descriptors whose fan-in
	// counter reaches zero (§3.2.2 reclaims them) — an ablation toggle
	// that trades memory for avoided realloc churn.
	RetainDescriptors bool
	// PagewiseRRL replaces precise per-object reverse reference lists with
	// page-level reverse references (§5.3): less space, displacement pays
	// a scan. Requires the page-buffer architecture (no ObjectCache).
	PagewiseRRL bool
	// SwizzleTableSize, when non-zero, replaces RRLs with a bounded
	// swizzle table (McAuliffe/Solomon, §3.2.2): at most this many
	// references can be directly swizzled at once; further direct
	// swizzles are rejected and behave like no-swizzling, and evictions
	// inspect the whole table. Mutually exclusive with PagewiseRRL.
	SwizzleTableSize int
	// Metrics installs the always-on observability registry: real event
	// counts (faults, swizzles, displacements, buffer hits) recorded
	// alongside the simulated cost meter. Nil disables the hooks at the
	// cost of one nil check each — the paper-reproduction hot paths stay
	// allocation-free either way.
	Metrics *metrics.Registry
	// ReadaheadPages, when > 0, enables sequential page readahead in the
	// buffer pool with the given window: a run of consecutive page misses
	// prefetches the next window of pages asynchronously through the
	// server's PageRunReader capability (no-op when the server lacks it).
	// Purely a transport optimization — strategy semantics and the
	// simulated cost model are unchanged except for the overlapped
	// round-trips.
	ReadaheadPages int
	// Trace installs the request tracer: entry points open sampled spans
	// that propagate through buffer faults, readahead, and — when the
	// server transport supports featureTrace — across the wire, so
	// server-side storage spans parent under client operations. Nil
	// disables tracing; an installed-but-unsampled tracer costs two
	// branches per operation and never allocates.
	Trace *trace.Tracer
	// Concurrent makes the object manager safe for concurrent use by many
	// goroutines (see concurrent.go and DESIGN.md "Concurrency
	// architecture"). Hot dereference/read operations run under a
	// distributed read lock and scale across cores; structural operations
	// (faults, commits, displacement) serialize behind a writer lock. The
	// simulated cost accounting stays exact: concurrent runs charge the
	// same totals the same operations would charge sequentially. Off by
	// default — a single-goroutine client pays nothing.
	Concurrent bool
}

// OM is the adaptable object manager for one client application stream.
// It is not safe for concurrent use: the paper's conflicting applications
// run in isolated buffers (§4.1.1), and non-conflicting ones share one OM
// sequentially.
type OM struct {
	srv    server.Server
	schema *object.Schema
	meter  *sim.Meter
	obs    *metrics.Registry // nil unless observability is installed
	pool   *buffer.Pool
	cache  *objcache.Cache // nil in the pure page-buffer architecture
	rot    *rot.Table
	spec   *swizzle.Spec

	// batcher is the server's batch-lookup capability, or nil; used by
	// eager scans to resolve a page's worth of references in one
	// round-trip instead of one per reference.
	batcher server.BatchLookuper
	// addrHints caches physical addresses resolved by batched lookups for
	// objects not yet resident; objectFault consumes them (falling back to
	// an authoritative Lookup if one proves stale).
	addrHints map[oid.OID]storage.PAddr

	// descs is the descriptor table: OID → descriptor, for descriptors of
	// resident and non-resident objects alike (§3.2.2).
	descs map[oid.OID]*object.Descriptor
	// byPage tracks, in the page architecture, which resident objects were
	// materialized from each buffered page, so page eviction can displace
	// them.
	byPage map[page.PageID][]*object.MemObject
	// vars is the registry of live program variables (the "run-time
	// stack" the displacement logic must reach, §5.3), sharded so
	// concurrent NewVar/FreeVar don't contend on one lock.
	vars varSet
	// varCtxs holds the variable contexts resolved in the current
	// application (varContext); nil until the first NewVar after
	// BeginApplication or SetMetrics. varCtxMu serializes additions.
	varCtxs  atomic.Pointer[varCtxTab]
	varCtxMu sync.Mutex
	// displacing guards displacement cascades against cycles.
	displacing map[oid.OID]bool
	// pagewise selects page-level reverse references (§5.3); pageRRL maps
	// a target page to the pages holding direct references into it.
	pagewise bool
	pageRRL  map[page.PageID]map[page.PageID]int
	// swizzleTableCap > 0 selects the bounded swizzle table (§3.2.2).
	swizzleTableCap int
	swizzleTable    []object.Slot

	// spans is the request tracer (nil disables); curCtx is the ambient
	// trace context of the operation currently executing, read by the
	// buffer pool and the RPC layer to parent their spans. scoreTab is
	// the precomputed per-type table of scoreboard handles (span.go).
	spans    *trace.Tracer
	curCtx   atomic.Pointer[trace.Context]
	scoreTab map[*object.Type][]*metrics.Score

	tracer Tracer
	// specEpoch increments on every application switch that changes the
	// spec; used only for diagnostics.
	specEpoch int
	// lazyUponDereference switches lazy swizzling from the default
	// upon-discovery behaviour to upon-dereference (§3.2.1) — implemented
	// for the ablation study; GOM and EXODUS use upon-discovery.
	lazyUponDereference bool
	// retainDescriptors keeps zero-fan-in descriptors alive (ablation).
	retainDescriptors bool
	// deferredErr accumulates failures raised inside buffer eviction
	// hooks, surfaced by the next API call.
	deferredErr error

	// Concurrent-mode state (see concurrent.go; all zero-cost when conc is
	// false). mu is the distributed reader-writer lock: fast read paths
	// take one reader slot, structural operations take all of them.
	// latches serialize fast-path mutations per object (RRL entries, int
	// writes); descMu guards the descriptor table against concurrent fast
	// swizzles; hasDeferred mirrors deferredErr != nil so fast paths can
	// bail without reading the unsynchronized error field.
	conc        bool
	mu          latch.DRW
	latches     latch.OIDLatches
	descMu      sync.Mutex
	hasDeferred atomic.Bool
	slotCtr     latch.Counter

	// Coherence state (coherence.go): pages queued by invalidation
	// callbacks for application at the next operation boundary. cohFlag
	// mirrors "queue non-empty" so idle hot paths pay one atomic load;
	// cohAll marks a lease expiry (drop everything cached).
	cohMu      sync.Mutex
	cohPending []page.PageID
	cohAll     bool
	cohFlag    atomic.Bool
}

// New constructs an object manager.
func New(opt Options) (*OM, error) {
	if opt.Server == nil || opt.Schema == nil {
		return nil, errors.New("core: Server and Schema are required")
	}
	costs := sim.DefaultCosts()
	if opt.Costs != nil {
		costs = *opt.Costs
	}
	pages := opt.PageBufferPages
	if pages == 0 {
		pages = 1000
	}
	meter := sim.NewMeter(costs)
	om := &OM{
		srv:        opt.Server,
		schema:     opt.Schema,
		meter:      meter,
		pool:       buffer.New(opt.Server, pages, meter),
		rot:        rot.New(),
		spec:       swizzle.NewSpec("default", swizzle.NOS),
		descs:      make(map[oid.OID]*object.Descriptor),
		byPage:     make(map[page.PageID][]*object.MemObject),
		displacing: make(map[oid.OID]bool),
		addrHints:  make(map[oid.OID]storage.PAddr),

		lazyUponDereference: opt.LazyUponDereference,
		retainDescriptors:   opt.RetainDescriptors,
		conc:                opt.Concurrent,
	}
	om.batcher, _ = opt.Server.(server.BatchLookuper)
	if opt.ReadaheadPages > 0 {
		om.pool.EnableReadahead(opt.ReadaheadPages)
	}
	om.pool.OnEvict(om.onPageEvict)
	om.pool.OnRefresh(om.onPageRefresh)
	if coh, ok := opt.Server.(coherenceWirer); ok && coh.HasCoherence() {
		// The server pushes invalidation callbacks on this connection:
		// queue them for application at operation boundaries, and treat
		// lease expiry as losing the whole cache.
		coh.OnInvalidate(om.NoteInvalidated)
		coh.OnLeaseExpired(om.NoteLeaseExpired)
	}
	om.SetMetrics(opt.Metrics)
	om.SetTrace(opt.Trace)
	if opt.ObjectCache {
		bytes := opt.ObjectCacheBytes
		if bytes == 0 {
			bytes = 4 << 20
		}
		om.cache = objcache.New(bytes, meter)
		om.cache.OnEvict(om.onCacheEvict)
	}
	if opt.PagewiseRRL {
		if opt.ObjectCache {
			return nil, errors.New("core: PagewiseRRL requires the page-buffer architecture")
		}
		if opt.SwizzleTableSize > 0 {
			return nil, errors.New("core: PagewiseRRL and SwizzleTableSize are mutually exclusive")
		}
		om.pagewise = true
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	om.swizzleTableCap = opt.SwizzleTableSize
	return om, nil
}

// Meter returns the client's cost meter.
func (om *OM) Meter() *sim.Meter { return om.meter }

// Metrics returns the installed observability registry, or nil.
func (om *OM) Metrics() *metrics.Registry { return om.obs }

// SetMetrics installs (or removes, with nil) the observability registry on
// the object manager and its page buffer pool.
func (om *OM) SetMetrics(r *metrics.Registry) {
	om.obs = r
	om.pool.SetMetrics(r)
	om.buildScoreTab()
	om.labelScoreStrategies()
	om.varCtxs.Store(nil)
}

// Schema returns the schema.
func (om *OM) Schema() *object.Schema { return om.schema }

// Spec returns the active swizzling specification.
func (om *OM) Spec() *swizzle.Spec { return om.spec }

// Pool exposes the page buffer pool (benchmarks inspect it).
func (om *OM) Pool() *buffer.Pool { return om.pool }

// SetReadEpoch marks every page buffered under an older read point stale:
// its next access displaces the objects materialized from it and
// re-fetches the image from the server. Sessions running snapshot
// transactions call this with each new snapshot's read-LSN, so pages
// swizzled under a previous snapshot refresh against the new watermark
// instead of serving frozen bytes forever.
func (om *OM) SetReadEpoch(e uint64) { om.pool.SetEpoch(e) }

// Cache exposes the object cache, or nil in the page architecture.
func (om *OM) Cache() *objcache.Cache { return om.cache }

// Resident returns the number of ROT-registered objects.
func (om *OM) Resident() int { return om.rot.Len() }

// SetTracer installs (or removes, with nil) the monitoring hook.
func (om *OM) SetTracer(t Tracer) {
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	om.tracer = t
}

func (om *OM) trace(id oid.OID, attr string, write bool) {
	if om.tracer != nil {
		om.tracer.Record(id, attr, write)
	}
}

// BeginApplication starts a new application with the given swizzling
// specification. Variables of the previous application become invalid. If
// the specification differs from the previous one, all cached objects are
// marked stale and their representation is fixed lazily on first access
// (§4.1.2) — pages and objects stay buffered hot across commits.
func (om *OM) BeginApplication(spec *swizzle.Spec) {
	sp, prev := om.startOp(spanBegin)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	om.releaseVars()
	if spec == nil {
		spec = swizzle.NewSpec("default", swizzle.NOS)
	}
	if !spec.Equal(om.spec) {
		om.specEpoch++
		om.rot.Range(func(e *rot.Entry) bool {
			e.Obj.Stale = true
			if e.Obj.Desc != nil {
				e.Obj.Desc.Stale = true
			}
			return true
		})
	}
	om.spec = spec
	om.labelScoreStrategies()
	om.varCtxs.Store(nil)
}

// releaseVars unregisters every live variable's swizzling bookkeeping and
// invalidates the variables (transient state does not survive the
// application, §3.2.2).
func (om *OM) releaseVars() {
	for _, v := range om.vars.snapshot() {
		om.unregisterSlot(object.VarSlot(&v.ref))
		v.ref = object.NilRef
		v.om = nil
	}
	om.vars.clear()
}

// Commit ends the current application: all dirty objects are written back
// into their pages, dirty pages are shipped to the server, and every
// buffered page and cached object remains resident for subsequent
// applications (§4.1.2).
func (om *OM) Commit() error {
	sp, prev := om.startOp(spanCommit)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	om.releaseVars()
	var err error
	var relocated []*object.MemObject
	om.rot.Range(func(e *rot.Entry) bool {
		if e.Obj.Dirty {
			moved, werr := om.writeBack(e)
			if werr != nil {
				err = werr
				return false
			}
			if moved {
				relocated = append(relocated, e.Obj)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// A relocated object's new page is not buffered; displace it so the
	// page-architecture invariant (resident ⇒ page buffered) holds — it
	// refaults from its new location on next access.
	for _, obj := range relocated {
		if om.cache != nil {
			continue // copy architecture has no such invariant
		}
		if err := om.displace(obj, false); err != nil {
			return err
		}
	}
	return om.pool.FlushAll()
}

// Reset cools the client completely: commits nothing, displaces every
// object, drops every page, and forgets every descriptor. Benchmarks use
// it to produce cold runs. It must not be called with live variables
// holding swizzled references (call Commit first, or accept that the
// variables are released).
func (om *OM) Reset() error {
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	om.releaseVars()
	if om.cache != nil {
		if err := om.cache.DropAll(); err != nil {
			return err
		}
	}
	if err := om.pool.DropAll(); err != nil {
		return err
	}
	// Page-architecture page drops displace their objects; anything left
	// (defensively) is displaced now.
	for _, id := range om.rot.OIDs() {
		if e := om.rot.Lookup(id); e != nil {
			if err := om.displace(e.Obj, false); err != nil {
				return err
			}
		}
	}
	om.descs = make(map[oid.OID]*object.Descriptor)
	om.byPage = make(map[page.PageID][]*object.MemObject)
	om.addrHints = make(map[oid.OID]storage.PAddr)
	if om.pagewise {
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	return nil
}

// Discard throws away every piece of client state — resident objects,
// buffered pages, cached objects, descriptors, variables — without
// writing anything back. This is the client half of a transaction abort
// (server.TxServer.Abort restores the durable state; the client's
// buffered images are then invalid and must not be flushed).
func (om *OM) Discard() {
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	for _, v := range om.vars.snapshot() {
		v.ref = object.NilRef
		v.om = nil
	}
	om.vars.clear()
	om.rot = rot.New()
	om.descs = make(map[oid.OID]*object.Descriptor)
	om.byPage = make(map[page.PageID][]*object.MemObject)
	om.displacing = make(map[oid.OID]bool)
	om.addrHints = make(map[oid.OID]storage.PAddr)
	om.swizzleTable = nil
	if om.pagewise {
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	om.deferredErr = nil
	om.hasDeferred.Store(false)
	om.cohMu.Lock()
	// Everything cached is being thrown away; pending invalidations have
	// nothing left to apply against.
	om.cohPending = nil
	om.cohAll = false
	om.cohFlag.Store(false)
	om.cohMu.Unlock()
	om.pool.Discard()
	if om.cache != nil {
		om.cache.Discard()
	}
}

// Var is a program variable holding a reference — its own swizzling
// context (§4.2.3). Variables are created per application and become
// invalid at Commit/BeginApplication.
type Var struct {
	om       *OM
	name     string
	typ      *object.Type // declared type of the referenced objects
	strategy swizzle.Strategy
	ref      object.Ref
	// score is the variable's swizzle-scoreboard handle (its own context,
	// §4.2.3), resolved once here so hot paths pay one atomic add.
	score *metrics.Score
	// slot is a round-robin index assigned at creation; concurrent mode
	// uses it to pick DRW reader slots and meter stripes so independent
	// goroutines' variables spread across locks and cache lines.
	slot uint32
	// idx is the variable's position in its varSet shard (guarded by the
	// shard lock).
	idx int
}

// varCtx is one program-variable context of the current application: a
// (declared type, name) pair with the strategy the spec installs for it
// and its scoreboard handle.
type varCtx struct {
	typ      *object.Type
	name     string
	strategy swizzle.Strategy
	score    *metrics.Score
}

// varCtxTab is an immutable snapshot of the resolved variable contexts,
// indexed by declared type ID. Adding a context publishes a new table
// that shares every row but the one it extends.
type varCtxTab [][]varCtx

// find scans the declared type's row, a handful of names at most.
func (t *varCtxTab) find(name string, typ *object.Type) (varCtx, bool) {
	if t == nil || int(typ.ID) >= len(*t) {
		return varCtx{}, false
	}
	row := (*t)[typ.ID]
	for i := range row {
		if row[i].typ == typ && row[i].name == name {
			return row[i], true
		}
	}
	return varCtx{}, false
}

// varContext returns the context of variables with this name and declared
// type, resolving it on the first NewVar of the pair in an application.
// The lookup is lock-free: one atomic load and a scan of the type's row.
func (om *OM) varContext(name string, typ *object.Type) varCtx {
	if c, ok := om.varCtxs.Load().find(name, typ); ok {
		return c
	}
	return om.addVarContext(name, typ)
}

// addVarContext resolves a variable context from the active spec, labels
// its scoreboard row with the strategy, and publishes it. Callers hold a
// DRW reader slot or the writer lock, so the spec and registry are fixed.
func (om *OM) addVarContext(name string, typ *object.Type) varCtx {
	om.varCtxMu.Lock()
	defer om.varCtxMu.Unlock()
	old := om.varCtxs.Load()
	if c, ok := old.find(name, typ); ok {
		return c // added while we waited for the lock
	}
	c := varCtx{typ: typ, name: name, strategy: om.spec.ForVar(name, typ.Name)}
	if om.obs != nil {
		c.score = om.obs.Score(typ.Name, "$"+name)
		c.score.SetStrategy(c.strategy.String())
	}
	var prev varCtxTab
	if old != nil {
		prev = *old
	}
	tab := make(varCtxTab, max(len(prev), int(typ.ID)+1))
	copy(tab, prev)
	row := tab[typ.ID]
	tab[typ.ID] = append(row[:len(row):len(row)], c)
	om.varCtxs.Store(&tab)
	return c
}

// NewVar declares a program variable with a name and a declared target
// type. Its strategy is resolved once, statically, from the active spec.
func (om *OM) NewVar(name string, typ *object.Type) *Var {
	v := &Var{om: om, name: name, typ: typ, slot: om.slotCtr.Next()}
	if om.conc {
		rs := om.mu.RLock(int(v.slot))
		defer om.mu.RUnlock(rs)
	}
	c := om.varContext(name, typ)
	v.strategy, v.score = c.strategy, c.score
	om.vars.add(v)
	return v
}

// LiveVars returns the number of live program variables: those created by
// NewVar and not yet freed or released by Commit, BeginApplication,
// Reset or Discard.
func (om *OM) LiveVars() int { return len(om.vars.snapshot()) }

// FreeVar releases a variable before the application ends (leaving a
// scope). Its swizzling bookkeeping is unregistered.
func (om *OM) FreeVar(v *Var) {
	if v.om != om {
		return
	}
	if om.conc {
		if om.fastFreeVar(v) {
			return
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	om.unregisterSlot(object.VarSlot(&v.ref))
	v.ref = object.NilRef
	v.om = nil
	om.vars.del(v)
}

// Name returns the variable's name.
func (v *Var) Name() string { return v.name }

// DeclaredType returns the variable's declared target type.
func (v *Var) DeclaredType() *object.Type { return v.typ }

// Strategy returns the variable's resolved swizzling strategy.
func (v *Var) Strategy() swizzle.Strategy { return v.strategy }

// IsNil reports whether the variable holds the null reference.
func (v *Var) IsNil() bool { return v.ref.IsNil() }

// Valid reports whether the variable still belongs to a live application
// (variables are invalidated by Commit and BeginApplication).
func (v *Var) Valid() bool { return v != nil && v.om != nil }

func (v *Var) valid(om *OM) error {
	if v == nil || v.om != om {
		return ErrClosedVar
	}
	return nil
}

// OID translates the variable's reference to its unswizzled form (an index
// key or an external handle, §3.4.2). The translation cost is charged when
// the reference is swizzled (Table 8).
func (om *OM) OID(v *Var) (oid.OID, error) {
	if om.conc {
		return om.fastOID(v)
	}
	if err := v.valid(om); err != nil {
		return oid.Nil, err
	}
	if v.ref.Swizzled() {
		om.meter.Event(sim.CntTranslate, om.meter.Costs().TranslateSwizzledToOID)
	}
	return v.ref.TargetOID(), nil
}

// Same evaluates the Boolean expression a == b over the referenced
// objects, translating layouts as needed (§4.2.3).
func (om *OM) Same(a, b *Var) (bool, error) {
	if om.conc {
		return om.fastSame(a, b)
	}
	if err := a.valid(om); err != nil {
		return false, err
	}
	if err := b.valid(om); err != nil {
		return false, err
	}
	costs := om.meter.Costs()
	if a.ref.State != b.ref.State {
		// One side must be translated to compare.
		om.meter.Event(sim.CntTranslate, costs.TranslateSwizzledToOID)
	}
	return a.ref.SameTarget(&b.ref), nil
}
