package server

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"gom/internal/metrics"
)

// TestTCPMetricsConcurrentClients hammers one TCP server with several
// client goroutines and checks that the registry's per-RPC histogram
// totals equal the sum of the per-client work — i.e. the counters are
// race-free and nothing is dropped under contention. A ReadPage of the
// page a Lookup just shipped is served by the client without an RPC, so
// server read_page RPCs plus the clients' read_page_from_lookup hits must
// equal the ReadPage calls. Run with -race.
func TestTCPMetricsConcurrentClients(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()
	reg := metrics.New()
	srv.SetMetrics(reg)
	creg := metrics.New() // shared by every client connection

	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialWith(srv.Addr().String(), DialOptions{Metrics: creg})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				id, addr, err := c.Allocate(0, []byte(fmt.Sprintf("client %d op %d", i, j)))
				if err != nil {
					errs <- err
					return
				}
				got, err := c.Lookup(id)
				if err != nil {
					errs <- err
					return
				}
				if got != addr {
					errs <- fmt.Errorf("client %d: lookup %v = %v, want %v", i, id, got, addr)
					return
				}
				if _, err := c.ReadPage(addr.Page); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	const want = int64(clients * perClient)
	for _, rpc := range []metrics.RPCOp{metrics.RPCAllocate, metrics.RPCLookup} {
		if got := snap.RPC[rpc].Count; got != want {
			t.Errorf("server_rpc{%v} count = %d, want %d", rpc, got, want)
		}
	}
	hits := creg.Count(metrics.CtrReadPageFromLookup)
	if got := snap.RPC[metrics.RPCReadPage].Count; got+hits != want {
		t.Errorf("server_rpc{read_page} %d + read_page_from_lookup %d = %d, want %d ReadPage calls", got, hits, got+hits, want)
	}
	if hits != want {
		// Each client runs Lookup then ReadPage of the looked-up page
		// back to back on its own connection: every read is a hit.
		t.Errorf("read_page_from_lookup = %d, want %d", hits, want)
	}
	if got := snap.Count(metrics.CtrRPCError); got != 0 {
		t.Errorf("server_rpc_error = %d, want 0", got)
	}
	// Every Lookup reads the object's page image from the disk layer.
	if got := snap.Count(metrics.CtrDiskPageRead); got < want {
		t.Errorf("disk_page_read = %d, want >= %d", got, want)
	}
}

// TestTCPSetMetricsWhileServing swaps registries under live traffic; the
// atomic installation must neither race (checked by -race) nor lose the
// final registry's observations.
func TestTCPSetMetricsWhileServing(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, _, err := c.Allocate(0, []byte("swap")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var last *metrics.Registry
	for i := 0; i < 20; i++ {
		last = metrics.New()
		srv.SetMetrics(last)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The last registry must be the installed one and observing traffic:
	// with the client loop done, one more RPC must land in it.
	if srv.Metrics() != last {
		t.Fatal("installed registry is not the last one set")
	}
	before := last.Snapshot().RPC[metrics.RPCLookup].Count
	_, _ = c.Lookup(1) // whether it resolves is irrelevant; the RPC must be observed
	if got := last.Snapshot().RPC[metrics.RPCLookup].Count; got != before+1 {
		t.Fatalf("lookup count = %d, want %d", got, before+1)
	}
}
