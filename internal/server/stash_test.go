package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

// Tests of the Lookup page stash: a pipelined Lookup ships the object's
// page, and the ReadPage of that page that follows is served from it
// without an RPC — unless one of the drop rules fired in between.

// stashRig is a server plus one client with its own registry, and two
// objects on different pages.
type stashRig struct {
	srv        *TCPServer
	sreg, creg *metrics.Registry
	cl         *Client
	id, id2    oid.OID
	addr       storage.PAddr
	addr2      storage.PAddr
}

// newStashRig serves mgr (transactionally when tx is set, with coherence
// when coh is set) and dials one client with opts plus a registry.
func newStashRig(t *testing.T, tx, coh bool, opts DialOptions) *stashRig {
	t.Helper()
	mgr := newMgr(t)
	local := NewLocal(mgr)
	r := &stashRig{sreg: metrics.New(), creg: metrics.New()}
	var err error
	if r.id, r.addr, err = local.Allocate(0, []byte("stashed object")); err != nil {
		t.Fatal(err)
	}
	// The second object lives in a segment of its own, so on another page.
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	if r.id2, r.addr2, err = local.Allocate(1, []byte("other object")); err != nil {
		t.Fatal(err)
	}
	if r.addr.Page == r.addr2.Page {
		t.Fatal("test objects share a page")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tx {
		r.srv = ServeTx(ln, NewTxServer(mgr, time.Second))
	} else {
		r.srv = Serve(ln, mgr)
	}
	t.Cleanup(func() { r.srv.Close() })
	if coh {
		r.srv.EnableCoherence(CoherenceOptions{})
	}
	r.srv.SetMetrics(r.sreg)
	opts.Metrics = r.creg
	if r.cl, err = DialWith(r.srv.Addr().String(), opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.cl.Close() })
	return r
}

// serverReads is the server's read_page RPC count.
func (r *stashRig) serverReads() int64 { return r.sreg.Snapshot().RPC[metrics.RPCReadPage].Count }

// hits is the client's count of reads served from a Lookup's page.
func (r *stashRig) hits() int64 { return r.creg.Count(metrics.CtrReadPageFromLookup) }

// lookup stashes the first object's page.
func (r *stashRig) lookup(t *testing.T) {
	t.Helper()
	got, err := r.cl.Lookup(r.id)
	if err != nil || got != r.addr {
		t.Fatalf("Lookup = %v, %v; want %v", got, err, r.addr)
	}
}

// expectRead reads the first object's page and checks whether it was
// served from the stash (fromStash) or by a server RPC, returning it.
func (r *stashRig) expectRead(t *testing.T, fromStash bool) []byte {
	t.Helper()
	reads, hits := r.serverReads(), r.hits()
	img, err := r.cl.ReadPage(r.addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	dr, dh := r.serverReads()-reads, r.hits()-hits
	if fromStash && (dr != 0 || dh != 1) {
		t.Fatalf("ReadPage made %d server reads and %d stash hits, want a stash hit", dr, dh)
	}
	if !fromStash && (dr != 1 || dh != 0) {
		t.Fatalf("ReadPage made %d server reads and %d stash hits, want a server read", dr, dh)
	}
	return img
}

func slotData(t *testing.T, img []byte, slot uint16) []byte {
	t.Helper()
	p, err := page.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Read(int(slot))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLookupStashServesReadPage: a Lookup's page serves exactly one
// ReadPage of that page; the next read goes to the server.
func TestLookupStashServesReadPage(t *testing.T) {
	r := newStashRig(t, false, false, DialOptions{})
	r.lookup(t)
	img := r.expectRead(t, true)
	if got := slotData(t, img, r.addr.Slot); string(got) != "stashed object" {
		t.Fatalf("stashed page holds %q", got)
	}
	r.expectRead(t, false) // consumed
}

// TestLookupStashDroppedByInvalidation: a commit on another connection
// pushes an invalidation naming the stashed page; the push is applied
// before it is acknowledged, so once the commit returns the next ReadPage
// is a server RPC and returns the post-commit image. A push naming only
// other pages leaves the stash alone.
func TestLookupStashDroppedByInvalidation(t *testing.T) {
	r := newStashRig(t, true, true, DialOptions{})
	if !r.cl.HasCoherence() {
		t.Fatal("coherence not negotiated")
	}
	writer, err := Dial(r.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	commitUpdate := func(id oid.OID, rec []byte) {
		t.Helper()
		if _, err := writer.BeginTx(); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.UpdateObject(id, rec); err != nil {
			t.Fatal(err)
		}
		if err := writer.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}
	sent := func() int64 { return r.sreg.Count(metrics.CtrCoherenceInvalSent) }

	// A push for the other page, which the reader also caches.
	if _, err := r.cl.ReadPage(r.addr2.Page); err != nil {
		t.Fatal(err)
	}
	r.lookup(t)
	before := sent()
	commitUpdate(r.id2, []byte("OTHER UPDATE"))
	if sent() != before+1 {
		t.Fatalf("commit to the other page sent %d invalidations, want 1", sent()-before)
	}
	r.expectRead(t, true)

	// A push naming the stashed page.
	r.lookup(t)
	before = sent()
	commitUpdate(r.id, []byte("COMMITTED OBJ!"))
	if sent() != before+1 {
		t.Fatalf("commit to the stashed page sent %d invalidations, want 1", sent()-before)
	}
	img := r.expectRead(t, false)
	if got := slotData(t, img, r.addr.Slot); string(got) != "COMMITTED OBJ!" {
		t.Fatalf("ReadPage after the commit returned %q, want the committed record", got)
	}
}

// TestLookupStashDroppedByOtherRPC: any other RPC on the connection
// between the Lookup and the ReadPage drops the stash.
func TestLookupStashDroppedByOtherRPC(t *testing.T) {
	r := newStashRig(t, false, false, DialOptions{})
	others := []struct {
		name string
		do   func() error
	}{
		{"NumPages", func() error { _, err := r.cl.NumPages(0); return err }},
		{"ReadPage of another page", func() error { _, err := r.cl.ReadPage(r.addr2.Page); return err }},
		{"ReadPages", func() error { _, err := r.cl.ReadPages(r.addr2.Page, 1); return err }},
		{"LookupBatch", func() error { _, _, err := r.cl.LookupBatch([]oid.OID{r.id}); return err }},
		{"Allocate", func() error { _, _, err := r.cl.Allocate(0, []byte("other")); return err }},
		{"UpdateObject", func() error { _, err := r.cl.UpdateObject(r.id2, []byte("other update")); return err }},
		{"WritePage", func() error {
			img, err := NewLocal(r.srv.mgr).ReadPage(r.addr.Page)
			if err != nil {
				return err
			}
			return r.cl.WritePage(r.addr.Page, img)
		}},
		{"failed Lookup", func() error {
			if _, err := r.cl.Lookup(oid.OID(1 << 40)); err == nil {
				return fmt.Errorf("lookup of an unknown OID succeeded")
			}
			return nil
		}},
	}
	for _, o := range others {
		r.lookup(t)
		if err := o.do(); err != nil {
			t.Fatalf("%s: %v", o.name, err)
		}
		t.Run(o.name, func(t *testing.T) { r.expectRead(t, false) })
	}
	// A Lookup of an object on another page replaces the stash.
	r.lookup(t)
	if _, err := r.cl.Lookup(r.id2); err != nil {
		t.Fatal(err)
	}
	r.expectRead(t, false)
}

// TestLookupStashDroppedByTxBoundaries: BeginTx, CommitTx and AbortTx
// each drop the stash, so a page looked up outside a transaction is read
// under the transaction's lock, and a page shipped inside one does not
// outlive it.
func TestLookupStashDroppedByTxBoundaries(t *testing.T) {
	r := newStashRig(t, true, false, DialOptions{})
	r.lookup(t)
	if _, err := r.cl.BeginTx(); err != nil {
		t.Fatal(err)
	}
	r.expectRead(t, false)

	r.lookup(t)
	r.expectRead(t, true) // inside the transaction the stash serves

	r.lookup(t)
	if err := r.cl.CommitTx(); err != nil {
		t.Fatal(err)
	}
	r.expectRead(t, false)

	if _, err := r.cl.BeginTx(); err != nil {
		t.Fatal(err)
	}
	r.lookup(t)
	if err := r.cl.AbortTx(); err != nil {
		t.Fatal(err)
	}
	r.expectRead(t, false)
}

// TestLookupStashDroppedByLeaseExpiry: a connection silent past its lease
// can no longer vouch for what it holds, the stash included.
func TestLookupStashDroppedByLeaseExpiry(t *testing.T) {
	r := newStashRig(t, false, true, DialOptions{LeaseTimeout: 30 * time.Millisecond})
	log := newInvalLog()
	log.attach(r.cl)
	r.lookup(t)
	before := log.leaseCount()
	waitFor(t, 2*time.Second, "lease expiry under silence", func() bool {
		return log.leaseCount() > before
	})
	r.expectRead(t, false)
}

// TestLookupStashSharedClient: several goroutines share one client, each
// looking up, reading and rewriting objects on its own pages. Every read
// must return the goroutine's latest record — whichever goroutine's Lookup
// shipped the page — and server read_page RPCs plus stash hits must equal
// the ReadPage calls. Run with -race -count=10.
func TestLookupStashSharedClient(t *testing.T) {
	const workers, iters = 6, 80
	mgr := storage.NewManager(1)
	for seg := uint16(0); seg < workers; seg++ {
		if err := mgr.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	srv.EnableCoherence(CoherenceOptions{})
	defer srv.Close()
	sreg, creg := metrics.New(), metrics.New()
	srv.SetMetrics(sreg)
	cl, err := DialWith(srv.Addr().String(), DialOptions{Metrics: creg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var reads atomic64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := func(i int) []byte { return []byte(fmt.Sprintf("worker %d version %04d", g, i)) }
			id, addr, err := cl.Allocate(uint16(g), rec(0))
			if err != nil {
				errCh <- err
				return
			}
			for i := 1; i <= iters; i++ {
				got, err := cl.Lookup(id)
				if err != nil || got != addr {
					errCh <- fmt.Errorf("worker %d: Lookup = %v, %v; want %v", g, got, err, addr)
					return
				}
				img, err := cl.ReadPage(addr.Page)
				if err != nil {
					errCh <- err
					return
				}
				reads.add(1)
				p, err := page.FromImage(img)
				if err != nil {
					errCh <- err
					return
				}
				data, err := p.Read(int(addr.Slot))
				if err != nil || !bytes.Equal(data, rec(i-1)) {
					errCh <- fmt.Errorf("worker %d: read %q, %v; want %q", g, data, err, rec(i-1))
					return
				}
				if i%3 == 0 {
					// Rewrite through the page API, the others through
					// UpdateObject: both are RPCs that must drop the stash.
					if err := p.Update(int(addr.Slot), rec(i)); err != nil {
						errCh <- err
						return
					}
					err = cl.WritePage(addr.Page, p.Image())
				} else {
					_, err = cl.UpdateObject(id, rec(i))
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	hits := creg.Count(metrics.CtrReadPageFromLookup)
	if got := sreg.Snapshot().RPC[metrics.RPCReadPage].Count; got+hits != reads.v() {
		t.Fatalf("server read_page %d + stash hits %d != %d ReadPage calls", got, hits, reads.v())
	}
}

// TestLookupPageFlagMalformed: a 9-byte Lookup with a flag other than 1,
// and a 9-byte Lookup on a lock-step connection, are protocol errors; the
// server keeps serving both connections.
func TestLookupPageFlagMalformed(t *testing.T) {
	r := newStashRig(t, false, false, DialOptions{})
	lockstep, err := DialWith(r.srv.Addr().String(), DialOptions{Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lockstep.Close()
	if lockstep.Pipelined() || !r.cl.Pipelined() {
		t.Fatal("framing not as configured")
	}
	req := make([]byte, 9)
	putOID(req, r.id)
	for _, tc := range []struct {
		name string
		cl   *Client
		flag byte
	}{
		{"pipelined flag 0", r.cl, 0},
		{"pipelined flag 2", r.cl, 2},
		{"pipelined flag 0xff", r.cl, 0xff},
		{"lock-step flag 1", lockstep, 1},
	} {
		req[8] = tc.flag
		_, err := tc.cl.call(opLookup, req)
		if err == nil || err.Error() != errProtocol.Error() {
			t.Errorf("%s: err = %v, want %v", tc.name, err, errProtocol)
		}
		for _, c := range []*Client{r.cl, lockstep} {
			if got, err := c.Lookup(r.id); err != nil || got != r.addr {
				t.Fatalf("%s: server stopped serving: Lookup = %v, %v", tc.name, got, err)
			}
		}
	}
	if got := r.sreg.Count(metrics.CtrRPCError); got != 4 {
		t.Errorf("server_rpc_error = %d, want 4", got)
	}
}
