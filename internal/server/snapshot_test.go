package server

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

// readObject resolves id under the session and returns the raw page image
// byte range is not needed — tests compare whole records via Lookup+Read
// of the manager; this helper reads through the session so snapshot
// resolution (versioned POT + versioned pages) is what is exercised.
func readObject(t *testing.T, s Server, id oid.OID) []byte {
	t.Helper()
	addr, err := s.Lookup(id)
	if err != nil {
		t.Fatalf("lookup %v: %v", id, err)
	}
	img, err := s.ReadPage(addr.Page)
	if err != nil {
		t.Fatalf("read page %v: %v", addr.Page, err)
	}
	pg, err := page.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pg.Read(int(addr.Slot))
	if err != nil {
		t.Fatalf("read slot %d of %v: %v", addr.Slot, addr.Page, err)
	}
	return append([]byte(nil), rec...)
}

// TestSnapshotReadDoesNotBlockOnWriterLock is the headline property: a
// snapshot begun before a writer's uncommitted update reads the old
// content immediately, without queueing behind the writer's X-lock.
func TestSnapshotReadDoesNotBlockOnWriterLock(t *testing.T) {
	ts, _, _ := durableSetup(t, t.TempDir())

	setup := ts.Begin()
	id, _, err := ts.Session(setup).Allocate(1, []byte("committed-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	// Writer updates in place and keeps its X-lock (no commit yet).
	writer := ts.Begin()
	if _, err := ts.Session(writer).UpdateObject(id, []byte("uncommitted!")); err != nil {
		t.Fatal(err)
	}

	snap, _, _ := ts.BeginSnapshot()
	done := make(chan []byte, 1)
	go func() { done <- readObject(t, ts.Session(snap), id) }()
	select {
	case rec := <-done:
		if string(rec) != "committed-v1" {
			t.Fatalf("snapshot read %q, want pre-update %q", rec, "committed-v1")
		}
	case <-time.After(time.Second):
		t.Fatal("snapshot read blocked behind the writer's X-lock")
	}

	// The writer commits; the open snapshot stays frozen, a new one moves.
	if err := ts.Commit(writer); err != nil {
		t.Fatal(err)
	}
	if rec := readObject(t, ts.Session(snap), id); string(rec) != "committed-v1" {
		t.Fatalf("open snapshot drifted to %q after writer commit", rec)
	}
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _, _ := ts.BeginSnapshot()
	if rec := readObject(t, ts.Session(snap2), id); string(rec) != "uncommitted!" {
		t.Fatalf("fresh snapshot read %q, want committed update", rec)
	}
	if err := ts.Commit(snap2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSeesCommitsWithLateAttachedWAL: the version-publication
// commit hook is wired by Manager.AttachWAL, so a WAL attached after the
// transaction server was built still publishes staged before-images with
// every durable commit — a snapshot begun after such a commit reads the
// committed content, not a frozen pre-commit state.
func TestSnapshotSeesCommitsWithLateAttachedWAL(t *testing.T) {
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	ts := NewTxServer(mgr, 2*time.Second)

	// The WAL arrives only after the transaction server was built.
	w, err := storage.CreateWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mgr.AttachWAL(w)

	setup := ts.Begin()
	id, _, err := ts.Session(setup).Allocate(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}
	writer := ts.Begin()
	if _, err := ts.Session(writer).UpdateObject(id, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(writer); err != nil {
		t.Fatal(err)
	}

	snap, _, err := ts.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rec := readObject(t, ts.Session(snap), id); string(rec) != "v2" {
		t.Fatalf("snapshot after commit read %q, want published %q", rec, "v2")
	}
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWritesRejected: every mutating session call on a snapshot
// transaction fails with ErrSnapshotReadOnly and changes nothing.
func TestSnapshotWritesRejected(t *testing.T) {
	ts, mgr, _ := durableSetup(t, t.TempDir())
	setup := ts.Begin()
	id, addr, err := ts.Session(setup).Allocate(1, []byte("stable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	snap, _, _ := ts.BeginSnapshot()
	s := ts.Session(snap)
	if _, _, err := s.Allocate(1, []byte("x")); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Allocate err = %v, want ErrSnapshotReadOnly", err)
	}
	if _, _, err := s.AllocateNear(1, id, []byte("x")); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("AllocateNear err = %v, want ErrSnapshotReadOnly", err)
	}
	if _, err := s.UpdateObject(id, []byte("x")); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("UpdateObject err = %v, want ErrSnapshotReadOnly", err)
	}
	img, err := mgr.Disk().ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(addr.Page, img); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("WritePage err = %v, want ErrSnapshotReadOnly", err)
	}
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}
	if rec, _, err := mgr.Read(id); err != nil || string(rec) != "stable" {
		t.Fatalf("object after rejected writes = %q, %v", rec, err)
	}
}

// TestSnapshotBatchBoundaryVisibility holds the group-commit leader so two
// transactions land in one durable batch, and asserts all-or-nothing
// snapshot visibility: a snapshot begun mid-flight sees neither update; a
// snapshot begun after the batch sees both. A snapshot must never observe
// half a commit batch.
func TestSnapshotBatchBoundaryVisibility(t *testing.T) {
	ts, mgr, w := durableSetup(t, t.TempDir())
	// A second segment keeps the two writers off each other's pages, so
	// both can hold their X-locks mid-batch without deadlocking.
	if err := mgr.CreateSegment(2); err != nil {
		t.Fatal(err)
	}

	setup := ts.Begin()
	sess := ts.Session(setup)
	idA, _, err := sess.Allocate(1, []byte("a-v1"))
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := sess.Allocate(2, []byte("b-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	w.HoldGroupCommit()
	txA, txB := ts.Begin(), ts.Begin()
	if _, err := ts.Session(txA).UpdateObject(idA, []byte("a-v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Session(txB).UpdateObject(idB, []byte("b-v2")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	wg.Add(2)
	go func() { defer wg.Done(); errA <- ts.Commit(txA) }()
	go func() { defer wg.Done(); errB <- ts.Commit(txB) }()
	for w.PendingCommits() < 2 {
		time.Sleep(100 * time.Microsecond)
	}

	mid, _, _ := ts.BeginSnapshot()
	if rec := readObject(t, ts.Session(mid), idA); string(rec) != "a-v1" {
		t.Fatalf("mid-batch snapshot reads A=%q, want a-v1", rec)
	}
	if rec := readObject(t, ts.Session(mid), idB); string(rec) != "b-v1" {
		t.Fatalf("mid-batch snapshot reads B=%q, want b-v1", rec)
	}

	w.ReleaseGroupCommit()
	wg.Wait()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if err := <-errB; err != nil {
		t.Fatal(err)
	}

	// The mid-flight snapshot is repeatable: still the old batch boundary.
	if rec := readObject(t, ts.Session(mid), idA); string(rec) != "a-v1" {
		t.Fatalf("mid-batch snapshot drifted to A=%q after flush", rec)
	}
	if err := ts.Commit(mid); err != nil {
		t.Fatal(err)
	}

	after, _, _ := ts.BeginSnapshot()
	gotA := readObject(t, ts.Session(after), idA)
	gotB := readObject(t, ts.Session(after), idB)
	if string(gotA) != "a-v2" || string(gotB) != "b-v2" {
		t.Fatalf("post-batch snapshot reads A=%q B=%q, want both v2 (all-or-nothing)", gotA, gotB)
	}
	if err := ts.Commit(after); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAcrossWriterAbort: a snapshot taken while a writer holds
// uncommitted changes keeps reading the pre-writer state through the
// writer's abort (whose undo rewrites the disk pages underneath it).
func TestSnapshotAcrossWriterAbort(t *testing.T) {
	ts, _, _ := durableSetup(t, t.TempDir())
	setup := ts.Begin()
	id, _, err := ts.Session(setup).Allocate(1, []byte("keep-me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	writer := ts.Begin()
	if _, err := ts.Session(writer).UpdateObject(id, []byte("doomed!")); err != nil {
		t.Fatal(err)
	}
	snap, _, _ := ts.BeginSnapshot()
	if rec := readObject(t, ts.Session(snap), id); string(rec) != "keep-me" {
		t.Fatalf("snapshot under uncommitted writer reads %q", rec)
	}
	if err := ts.Abort(writer); err != nil {
		t.Fatal(err)
	}
	if rec := readObject(t, ts.Session(snap), id); string(rec) != "keep-me" {
		t.Fatalf("snapshot after writer abort reads %q", rec)
	}
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _, _ := ts.BeginSnapshot()
	if rec := readObject(t, ts.Session(snap2), id); string(rec) != "keep-me" {
		t.Fatalf("fresh snapshot after abort reads %q", rec)
	}
	if err := ts.Commit(snap2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSessionAfterFinish: once the snapshot transaction commits,
// its session answers ErrTxDone.
func TestSnapshotSessionAfterFinish(t *testing.T) {
	ts, _, _ := durableSetup(t, t.TempDir())
	snap, _, _ := ts.BeginSnapshot()
	s := ts.Session(snap)
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup(oid.OID(0)); !errors.Is(err, ErrTxDone) {
		t.Fatalf("lookup after commit err = %v, want ErrTxDone", err)
	}
	if _, err := s.ReadPage(storage.PAddr{}.Page); !errors.Is(err, ErrTxDone) {
		t.Fatalf("read after commit err = %v, want ErrTxDone", err)
	}
}

// TestSnapshotCrashMidPublish fails the commit batch's fsync, so the
// batch never becomes durable and never publishes versions: the stable
// point must not move, open and fresh snapshots must keep reading the old
// content, and after a crash+recovery the version store starts empty with
// only the durable prefix visible — no orphaned versions of the failed
// batch survive anywhere.
func TestSnapshotCrashMidPublish(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	ts, mgr, w := durableSetup(t, dir)

	setup := ts.Begin()
	id, _, err := ts.Session(setup).Allocate(1, []byte("durable-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}
	stableBefore := mgr.Versions().StablePoint()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Times: 1})
	tx := ts.Begin()
	if _, err := ts.Session(tx).UpdateObject(id, []byte("never-seen")); err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(tx); err == nil {
		t.Fatal("commit with failed batch fsync reported success")
	}

	if got := mgr.Versions().StablePoint(); got != stableBefore {
		t.Fatalf("failed batch moved the stable point %d -> %d", stableBefore, got)
	}
	snap, _, _ := ts.BeginSnapshot()
	if rec := readObject(t, ts.Session(snap), id); string(rec) != "durable-v1" {
		t.Fatalf("snapshot after failed flush reads %q", rec)
	}
	if err := ts.Commit(snap); err != nil {
		t.Fatal(err)
	}

	// Crash: drop everything in memory and cut the log at the durable
	// prefix — the failed fsync means everything past SyncedOffset may
	// be lost — then recover from the file alone.
	synced, path := w.SyncedOffset(), w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, synced); err != nil {
		t.Fatal(err)
	}
	m2, w2, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	ts2 := NewTxServer(m2, time.Second)
	if st := m2.Versions().Stats(); st.Entries != 0 || st.Snapshots != 0 {
		t.Fatalf("recovered version store not empty: %+v", st)
	}
	snap2, _, _ := ts2.BeginSnapshot()
	if rec := readObject(t, ts2.Session(snap2), id); string(rec) != "durable-v1" {
		t.Fatalf("post-recovery snapshot reads %q, want durable prefix only", rec)
	}
	if err := ts2.Commit(snap2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotOverTCP drives the whole stack end to end: a transactional
// TCP server, a writer connection holding an uncommitted update, and a
// second connection whose snapshot transaction reads the old content
// through the v2 wire opcode without blocking.
func TestSnapshotOverTCP(t *testing.T) {
	ts, _, _ := durableSetup(t, t.TempDir())
	setup := ts.Begin()
	id, _, err := ts.Session(setup).Allocate(1, []byte("wire-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	defer srv.Close()

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, err := writer.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.UpdateObject(id, []byte("wire-v2")); err != nil {
		t.Fatal(err)
	}

	reader, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if !reader.HasSnapshot() {
		t.Fatal("pipelined client did not negotiate the snapshot feature")
	}
	if _, readLSN, err := reader.BeginSnapshotTx(); err != nil {
		t.Fatal(err)
	} else if readLSN == 0 {
		t.Fatal("snapshot begin returned read-LSN 0 after a durable commit")
	}
	addr, err := reader.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		img, err := reader.ReadPage(addr.Page)
		if err != nil {
			errCh <- err
			return
		}
		done <- img
	}()
	var img []byte
	select {
	case img = <-done:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(time.Second):
		t.Fatal("snapshot read over TCP blocked behind the writer")
	}
	pg, err := page.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pg.Read(int(addr.Slot))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, []byte("wire-v1")) {
		t.Fatalf("snapshot over TCP reads %q, want wire-v1", rec)
	}
	if _, err := reader.UpdateObject(id, []byte("nope")); err == nil {
		t.Fatal("snapshot connection accepted a write")
	}
	if err := reader.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if err := writer.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLockstepClientLacksFeature: a legacy lock-step client must
// not be offered the snapshot opcode.
func TestSnapshotLockstepClientLacksFeature(t *testing.T) {
	ts, _, _ := durableSetup(t, t.TempDir())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	defer srv.Close()
	cl, err := DialWith(srv.Addr().String(), DialOptions{Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.HasSnapshot() {
		t.Fatal("lock-step client claims snapshot support")
	}
	if _, _, err := cl.BeginSnapshotTx(); err == nil {
		t.Fatal("BeginSnapshotTx on a lock-step client succeeded")
	}
}
