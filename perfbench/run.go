package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gom/internal/metrics"
	"gom/internal/oo1"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    int64
	window  time.Duration
	traced  bool
	workdir string
}

// session is a deployment with its clients, set up and warmed.
type session struct {
	dep     *deployment
	clients []*client
	epoch   time.Time
	// committed counts the update transactions committed since the WAL
	// was checkpointed, warm-up included.
	committed int64
}

func (s *session) close() error {
	for _, c := range s.clients {
		c.conn.Close()
	}
	return s.dep.close()
}

// clientSeed derives client i's operation-stream seed from the workload
// seed.
func clientSeed(seed int64, i int) int64 { return seed*7919 + int64(i) + 1 }

// setUp generates and serves the base, dials every client and runs the
// warm-up units.
func setUp(w *workload, rc runConfig) (*session, error) {
	cfg := oo1.DefaultConfig().Scaled(w.parts)
	cfg.Seed = rc.seed
	dep, err := deploy(cfg, rc.workdir)
	if err != nil {
		return nil, err
	}
	s := &session{dep: dep, epoch: time.Now()}
	for i, spec := range w.clients {
		var rec *recorder
		if rc.traced {
			rec = newRecorder(s.epoch)
		}
		c, err := dep.dial(spec, clientSeed(rc.seed, i), rec)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	stats, err := s.drive(time.Time{}, w.warm)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, st := range stats {
		if st.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %d of %d operations failed", st.failed, st.attempted)
		}
		s.committed += st.committed
	}
	for _, c := range s.clients {
		if c.rec != nil {
			c.rec.spans = c.rec.spans[:0]
		}
	}
	return s, nil
}

// drive runs every client's loop concurrently, until the deadline or for
// the given unit counts.
func (s *session) drive(deadline time.Time, units []int) ([]*opStats, error) {
	stats := make([]*opStats, len(s.clients))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		stats[i] = newStats()
		n := 0
		if units != nil {
			n = units[i]
		}
		wg.Add(1)
		go func(i int, c *client, n int) {
			defer wg.Done()
			errs[i] = c.loop(stats[i], deadline, n)
		}(i, c, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// processSample is the process-wide resource use at one instant.
type processSample struct {
	at  time.Time
	mem runtime.MemStats
	cpu time.Duration
}

func sampleProcess() processSample {
	var p processSample
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.at = time.Now()
	return p
}

// window is what one timed window measured.
type window struct {
	start   time.Time
	stats   []*opStats
	srv     metrics.Snapshot   // server registry delta
	clients []metrics.Snapshot // client registry deltas
	before  processSample
	after   processSample
	heapMB  float64
	setupsS []float64
}

// measure runs the timed window on a warmed session.
func (s *session) measure(d time.Duration) (*window, error) {
	w := &window{}
	srvPrev := s.dep.reg.Snapshot()
	cliPrev := make([]metrics.Snapshot, len(s.clients))
	for i, c := range s.clients {
		cliPrev[i] = c.reg.Snapshot()
	}
	w.before = sampleProcess()
	w.start = time.Now()
	stats, err := s.drive(w.start.Add(d), nil)
	w.after = sampleProcess()
	w.stats = stats
	if err != nil {
		return w, err
	}
	_, w.srv = s.dep.reg.DeltaSince(srvPrev)
	for i, c := range s.clients {
		_, delta := c.reg.DeltaSince(cliPrev[i])
		w.clients = append(w.clients, delta)
	}
	for _, st := range stats {
		s.committed += st.committed
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapMB = float64(ms.HeapAlloc) / 1e6
	return w, nil
}

// setups is how many times an untraced run sets the workload up; setup_s
// is their median.
const setups = 3

// runWorkload sets the workload up (several times when measuring set-up
// time, keeping the last), measures one window, and checks the outputs.
// A non-nil error means the run could not be completed; check failures
// are returned in the failures list.
func runWorkload(w *workload, rc runConfig) (*window, []string, *session, error) {
	n := setups
	if rc.traced {
		n = 1
	}
	var (
		s     *session
		times []float64
	)
	for k := 0; k < n; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, nil, err
			}
			s = nil
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(w, rc); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	win, err := s.measure(rc.window)
	win.setupsS = times
	if err != nil {
		// A wrong result is a failed check, not a failed run.
		return win, []string{err.Error()}, s, nil
	}
	failures := s.check(w)
	return win, failures, s, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
