package main

import (
	"fmt"

	"gom/internal/core"
	"gom/internal/oo1"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// check runs the end-of-run correctness checks and returns one line per
// failure. Traversal visit counts are checked on every traversal as it
// runs (a wrong count ends the window early).
func (s *session) check(w *workload) []string {
	var failures []string
	fail := func(err error) { failures = append(failures, err.Error()) }
	for _, c := range s.clients {
		if err := c.oo.OM.Verify(); err != nil {
			fail(fmt.Errorf("%s client: OM.Verify: %w", c.spec.role, err))
		}
	}
	if !hasRole(w, roleWriter) {
		return failures
	}
	// OO1 Update swaps two to-fields twice, so every committed
	// transaction leaves the base as generated: a fresh client must read
	// the generator's to-parts, over the wire and again from the base
	// recovered from the WAL.
	conn, err := server.Dial(s.dep.srv.Addr().String())
	if err != nil {
		fail(fmt.Errorf("fresh client: %w", err))
		return failures
	}
	err = checkConnections(s.dep.db, conn)
	conn.Close()
	if err != nil {
		fail(fmt.Errorf("fresh client over TCP: %w", err))
	}
	if err := s.dep.stopServing(); err != nil {
		fail(fmt.Errorf("stop serving: %w", err))
		return failures
	}
	mgr, wal, info, err := storage.RecoverManager(s.dep.walDir, 1)
	if err != nil {
		fail(fmt.Errorf("recover WAL: %w", err))
		return failures
	}
	defer wal.Close()
	if info.Committed != int(s.committed) {
		fail(fmt.Errorf("recovery replayed %d committed transactions, want the %d reported committed", info.Committed, s.committed))
	}
	if err := checkConnections(s.dep.db, server.NewLocal(mgr)); err != nil {
		fail(fmt.Errorf("recovered base: %w", err))
	}
	return failures
}

func hasRole(w *workload, r role) bool {
	for _, c := range w.clients {
		if c.role == r {
			return true
		}
	}
	return false
}

// checkConnections reads every Connection's to-field through a fresh
// object manager over srv and compares it with the generator's record.
func checkConnections(db *oo1.DB, srv server.Server) error {
	c, err := oo1.NewClient(db, core.Options{Server: srv, PageBufferPages: 2 * db.NumPages()}, 1)
	if err != nil {
		return err
	}
	c.Begin(swizzle.NewSpec("check", swizzle.NOS))
	om := c.OM
	cv := om.NewVar("conn", db.Conn)
	tv := om.NewVar("to", db.Part)
	for i, conns := range db.Conns {
		for k, id := range conns {
			if err := om.Load(cv, id); err != nil {
				return fmt.Errorf("load connection %v: %w", id, err)
			}
			if err := om.ReadRef(cv, "to", tv); err != nil {
				return fmt.Errorf("read connection %v: %w", id, err)
			}
			got, err := om.OID(tv)
			if err != nil {
				return err
			}
			if want := db.Parts[db.ToParts[i][k]]; got != want {
				return fmt.Errorf("connection %d of part %d points to %v, want %v", k, i+1, got, want)
			}
		}
	}
	return om.Verify()
}
