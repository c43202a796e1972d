package faultpoint

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedSitesAreInert(t *testing.T) {
	Reset()
	if err := Check(DiskRead); err != nil {
		t.Fatal(err)
	}
	if skip, err := CheckSync(WALBatchSync); skip || err != nil {
		t.Fatalf("skip=%v err=%v", skip, err)
	}
	if n, err := CheckWrite(WALAppend, 100); n != 100 || err != nil {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestFailAfterNCalls(t *testing.T) {
	defer Reset()
	a := Arm(Fault{Site: DiskRead, After: 3})
	for i := 0; i < 3; i++ {
		if err := Check(DiskRead); err != nil {
			t.Fatalf("call %d should pass: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := Check(DiskRead); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d should fail, got %v", 3+i, err)
		}
	}
	if a.Fired() != 2 || a.Calls() != 5 {
		t.Fatalf("fired=%d calls=%d", a.Fired(), a.Calls())
	}
}

func TestTimesBoundsTriggering(t *testing.T) {
	defer Reset()
	Arm(Fault{Site: DiskWrite, Times: 2})
	fails := 0
	for i := 0; i < 5; i++ {
		if Check(DiskWrite) != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("fault fired %d times, want 2", fails)
	}
}

func TestPrefixMatchCountsAcrossSites(t *testing.T) {
	defer Reset()
	a := Arm(Fault{Site: ServerAll, After: 2})
	if err := Check(ServerLookup); err != nil {
		t.Fatal(err)
	}
	if err := Check(ServerReadPage); err != nil {
		t.Fatal(err)
	}
	// Third matching call, regardless of which server site, triggers.
	if err := Check(ServerAllocate); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if err := Check(DiskRead); err != nil {
		t.Fatalf("non-matching site must stay clean: %v", err)
	}
	if a.Calls() != 3 {
		t.Fatalf("calls=%d, want 3", a.Calls())
	}
}

func TestCustomError(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Arm(Fault{Site: RPCSend, Err: boom})
	if err := Check(RPCSend); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestTornWrite(t *testing.T) {
	defer Reset()
	Arm(Fault{Site: WALAppend, TornWrite: true, TornAt: 7})
	n, err := CheckWrite(WALAppend, 100)
	if n != 7 || !errors.Is(err, ErrInjected) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// Torn offset is clamped to the payload.
	Reset()
	Arm(Fault{Site: WALAppend, TornWrite: true, TornAt: 500})
	n, err = CheckWrite(WALAppend, 100)
	if n != 100 || err == nil {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestOutrightWriteFailure(t *testing.T) {
	defer Reset()
	Arm(Fault{Site: WALAppend})
	n, err := CheckWrite(WALAppend, 100)
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestSkipSync(t *testing.T) {
	defer Reset()
	a := Arm(Fault{Site: WALBatchSync, Skip: true, Times: 1})
	skip, err := CheckSync(WALBatchSync)
	if !skip || err != nil {
		t.Fatalf("skip=%v err=%v", skip, err)
	}
	skip, err = CheckSync(WALBatchSync)
	if skip || err != nil {
		t.Fatalf("after Times exhausted: skip=%v err=%v", skip, err)
	}
	if a.Fired() != 1 {
		t.Fatalf("fired=%d", a.Fired())
	}
}

func TestDelay(t *testing.T) {
	defer Reset()
	Arm(Fault{Site: RPCSend, Delay: 30 * time.Millisecond, Err: errors.New("late")})
	start := time.Now()
	err := Check(RPCSend)
	if err == nil || time.Since(start) < 25*time.Millisecond {
		t.Fatalf("err=%v elapsed=%v", err, time.Since(start))
	}
}

func TestDisarmStopsFault(t *testing.T) {
	defer Reset()
	a := Arm(Fault{Site: DiskRead})
	if Check(DiskRead) == nil {
		t.Fatal("armed fault did not fire")
	}
	a.Disarm()
	a.Disarm() // idempotent
	if err := Check(DiskRead); err != nil {
		t.Fatalf("disarmed fault still fires: %v", err)
	}
	if active.Load() != 0 {
		t.Fatalf("active=%d after disarm", active.Load())
	}
}

func TestConcurrentChecksAndArms(t *testing.T) {
	defer Reset()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Check(DiskRead)
				CheckWrite(WALAppend, 10)
				CheckSync(WALBatchSync)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		a := Arm(Fault{Site: DiskRead, After: 1})
		a.Disarm()
	}
	wg.Wait()
}

// TestDisarmedZeroAlloc is the zero-overhead guard: with nothing armed, a
// fault site must cost one atomic load and zero allocations.
func TestDisarmedZeroAlloc(t *testing.T) {
	Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Check(DiskWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckWrite(WALAppend, 4096); err != nil {
			t.Fatal(err)
		}
		// The group-commit hot path: every batch flush crosses these
		// three sites, so a disarmed check must stay free here too.
		if _, err := CheckWrite(WALBatchAppend, 136); err != nil {
			t.Fatal(err)
		}
		if skip, err := CheckSync(WALBatchSync); skip || err != nil {
			t.Fatal(skip, err)
		}
		if err := Check(WALWriterStall); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed fault sites allocate %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkDisarmedCheck(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Check(DiskRead)
	}
}
