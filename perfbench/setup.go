package main

import (
	"net"
	"os"
	"time"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/oo1"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// lockTimeout is gomcli serve's default -lock-timeout.
const lockTimeout = 2 * time.Second

// deployment is one object base served in the production configuration
// of `gomcli serve -tx -wal DIR -coherence -debug`, set up in process:
// a transactional TCP server on loopback over the generated base, a
// fresh write-ahead log on the real filesystem with group commit and
// fsync on, callback/lease coherence with default options, and one
// metrics registry shared by the server and the WAL.
type deployment struct {
	db     *oo1.DB
	walDir string
	wal    *storage.WAL
	srv    *server.TCPServer
	reg    *metrics.Registry
}

// deploy generates the base and serves it. workdir holds the WAL
// directory; the deployment removes it on close.
func deploy(cfg oo1.Config, workdir string) (*deployment, error) {
	db, err := oo1.Generate(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{db: db}
	if d.walDir, err = os.MkdirTemp(workdir, "wal-"); err != nil {
		return nil, err
	}
	mgr := db.Srv.Manager()
	if d.wal, err = storage.CreateWAL(d.walDir); err != nil {
		d.close()
		return nil, err
	}
	mgr.AttachWAL(d.wal)
	if err := d.wal.Checkpoint(mgr); err != nil {
		d.close()
		return nil, err
	}
	d.wal.EnableGroupCommit(storage.GroupCommitOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = server.ServeTx(ln, server.NewTxServer(mgr, lockTimeout))
	d.srv.EnableCoherence(server.CoherenceOptions{})
	d.reg = metrics.New()
	d.srv.SetMetrics(d.reg)
	d.srv.SetTracer(trace.New(1, trace.DefaultDepth))
	if _, err := d.srv.StartDebug("127.0.0.1:0"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// stopServing closes the server and the WAL, leaving the WAL directory
// for recovery.
func (d *deployment) stopServing() error {
	var err error
	if d.srv != nil {
		err = d.srv.Close()
		d.srv = nil
	}
	if d.wal != nil {
		if cerr := d.wal.Close(); err == nil {
			err = cerr
		}
		d.wal = nil
	}
	return err
}

// close stops serving and removes the WAL directory.
func (d *deployment) close() error {
	err := d.stopServing()
	if d.walDir != "" {
		if rerr := os.RemoveAll(d.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// clientSpec is how one benchmark client's object manager is built.
type clientSpec struct {
	role     role
	pages    int
	strategy swizzle.Strategy
}

// client is one OO1 client: its own connection, object manager and
// registry, and — in a traced run — its span recorder.
type client struct {
	spec clientSpec
	conn *server.Client
	reg  *metrics.Registry
	oo   *oo1.Client
	rec  *recorder
}

// dial connects a client to the deployment. In a traced run the
// connection records its client-side counters in the client's registry
// and the object manager talks to the server through the timing wrapper;
// the untraced run dials exactly as gomcli does.
func (d *deployment) dial(spec clientSpec, seed int64, rec *recorder) (*client, error) {
	reg := metrics.New()
	var (
		conn *server.Client
		err  error
	)
	if rec != nil {
		conn, err = server.DialWith(d.srv.Addr().String(), server.DialOptions{Metrics: reg})
	} else {
		conn, err = server.Dial(d.srv.Addr().String())
	}
	if err != nil {
		return nil, err
	}
	var srv server.Server = conn
	if rec != nil {
		srv = &timedServer{cl: conn, rec: rec}
	}
	oo, err := oo1.NewClient(d.db, core.Options{Server: srv, PageBufferPages: spec.pages, Metrics: reg}, seed)
	if err != nil {
		conn.Close()
		return nil, err
	}
	oo.Begin(swizzle.NewSpec(spec.strategy.String(), spec.strategy))
	return &client{spec: spec, conn: conn, reg: reg, oo: oo, rec: rec}, nil
}
