package buffer

import (
	"sync"
	"testing"

	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
)

// epochSetup is like setup but also returns the manager, so tests can
// mutate pages server-side underneath the pool (the way a snapshot begin
// observes newer committed state than a long-lived cached frame).
func epochSetup(t *testing.T, npages, capacity int) (*Pool, *storage.Manager, []page.PageID) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	pids := make([]page.PageID, npages)
	for i := range pids {
		pid, err := mgr.Disk().AllocPage(0)
		if err != nil {
			t.Fatal(err)
		}
		img, _ := mgr.Disk().ReadPage(pid)
		pg, _ := page.FromImage(img)
		pg.Insert([]byte{byte(i)})
		mgr.Disk().WritePage(pid, pg.Image())
		pids[i] = pid
	}
	meter := sim.NewMeter(sim.DefaultCosts())
	return New(server.NewLocal(mgr), capacity, meter), mgr, pids
}

// rewrite replaces the page's slot-0 record server-side, bypassing the pool.
func rewrite(t *testing.T, mgr *storage.Manager, pid page.PageID, b byte) {
	t.Helper()
	img, err := mgr.Disk().ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Update(0, []byte{b}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Disk().WritePage(pid, pg.Image()); err != nil {
		t.Fatal(err)
	}
}

func slot0(t *testing.T, f *Frame) byte {
	t.Helper()
	rec, err := f.Page.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	return rec[0]
}

// TestEpochRefreshesStaleFrame: a cached frame whose image predates the
// pool's read epoch is re-fetched in place on the next Get; with the epoch
// at zero (disabled) the cached image is served unchanged.
func TestEpochRefreshesStaleFrame(t *testing.T) {
	pool, mgr, pids := epochSetup(t, 2, 2)
	f, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := slot0(t, f); got != 0 {
		t.Fatalf("initial read = %d, want 0", got)
	}

	rewrite(t, mgr, pids[0], 0xee)

	// Epoch disabled: the hit serves the cached (now stale) image.
	f2, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := slot0(t, f2); got != 0 {
		t.Fatalf("epoch disabled: cached read = %d, want stale 0", got)
	}

	pool.SetEpoch(1)
	f3, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f3 != f {
		t.Fatal("refresh replaced the frame instead of swapping its image")
	}
	if got := slot0(t, f3); got != 0xee {
		t.Fatalf("after epoch advance: read = %#x, want refreshed 0xee", got)
	}

	// The frame is stamped current: a second hit at the same epoch must
	// not refresh again (the server image moved on but the epoch did not).
	rewrite(t, mgr, pids[0], 0x11)
	f4, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := slot0(t, f4); got != 0xee {
		t.Fatalf("same-epoch hit = %#x, want cached 0xee", got)
	}
}

// TestEpochPinnedFrameNotRefreshed: a pinned frame's image must stay put
// (the Pin contract), so an epoch advance does not swap it — the stale
// image is served with the epoch left old, and the first hit after the
// pins drain performs the deferred refresh.
func TestEpochPinnedFrameNotRefreshed(t *testing.T) {
	pool, mgr, pids := epochSetup(t, 1, 1)
	f, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pool.Pin(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	rewrite(t, mgr, pids[0], 0xee)
	pool.SetEpoch(1)

	f2, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("pinned hit returned a different frame")
	}
	if got := slot0(t, f2); got != 0 {
		t.Fatalf("pinned frame's image was swapped under its pin: %#x", got)
	}

	if err := pf.Unpin(); err != nil {
		t.Fatal(err)
	}
	f3, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := slot0(t, f3); got != 0xee {
		t.Fatalf("deferred refresh after unpin = %#x, want 0xee", got)
	}
}

// TestEpochRefreshPinRace races a pinning reader against epoch advances
// under -race: the refresh path must never replace a frame's image while
// a pin is held (the decisive pins check runs under the shard's write
// lock, which Pin's increment cannot cross).
func TestEpochRefreshPinRace(t *testing.T) {
	pool, mgr, pids := epochSetup(t, 2, 2)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pool.Get(pids[0]); err != nil {
				errCh <- err
				return
			}
			f, err := pool.Pin(pids[0])
			if err != nil {
				continue // frame mid-eviction; retry
			}
			if _, err := f.Page.Read(0); err != nil {
				f.Unpin()
				errCh <- err
				return
			}
			if err := f.Unpin(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for e := uint64(1); e <= 200; e++ {
		rewrite(t, mgr, pids[0], byte(e))
		pool.SetEpoch(e)
		if _, err := pool.Get(pids[0]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestEpochDirtyFrameKeepsLocalWrites: a locally dirty frame is not
// clobbered by an epoch advance — it is stamped current and the client's
// own modification survives.
func TestEpochDirtyFrameKeepsLocalWrites(t *testing.T) {
	pool, mgr, pids := epochSetup(t, 1, 1)
	f, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Page.Update(0, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()

	rewrite(t, mgr, pids[0], 0xee)
	pool.SetEpoch(1)

	f2, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := slot0(t, f2); got != 0x77 {
		t.Fatalf("dirty frame after epoch advance = %#x, want local 0x77", got)
	}
	if !f2.Dirty() {
		t.Fatal("dirty flag lost across epoch advance")
	}
	if got := f2.epoch.Load(); got != 1 {
		t.Fatalf("dirty frame epoch = %d, want stamped 1", got)
	}
}

// TestEpochOnRefreshHook: the refresh hook fires with the page being
// re-fetched, before the stale image is replaced — mirroring the eviction
// hook's contract so the object manager can rescue displaced state.
func TestEpochOnRefreshHook(t *testing.T) {
	pool, mgr, pids := epochSetup(t, 2, 2)
	var fired []page.PageID
	pool.OnRefresh(func(pid page.PageID, f *Frame) {
		fired = append(fired, pid)
	})
	if _, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(pids[1]); err != nil {
		t.Fatal(err)
	}
	rewrite(t, mgr, pids[1], 0xee)
	pool.SetEpoch(1)
	if _, err := pool.Get(pids[1]); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != pids[1] {
		t.Fatalf("refresh hook fired for %v, want exactly [%v]", fired, pids[1])
	}
	// The other frame refreshes on its own next access, not eagerly.
	if _, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != pids[0] {
		t.Fatalf("refresh hook fired for %v, want [%v %v]", fired, pids[1], pids[0])
	}
}

// TestEpochCurrentHitZeroAlloc: the epoch check on the buffer hit path is
// two atomic loads — a hit on an epoch-current frame must stay
// allocation-free, or every object access pays for snapshot support even
// when no snapshot is open.
func TestEpochCurrentHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	pool, _, pids := epochSetup(t, 1, 1)
	if _, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	}
	pool.SetEpoch(3)
	if _, err := pool.Get(pids[0]); err != nil { // refresh once, stamping epoch 3
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pool.Get(pids[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("epoch-current buffer hit allocates %.1f times per Get, want 0", allocs)
	}
}
