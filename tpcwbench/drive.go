package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"synergy/internal/server"
	"synergy/internal/sim"
)

// conns is the number of client connections every workload drives, each
// in a closed loop: a connection sends its next interaction only after the
// previous one completed.
const conns = 2

// sample is one finished interaction.
type sample struct {
	wall time.Duration
	// ttfr is the wall time from sending the interaction's first SELECT
	// to receiving its first row (or its end, when it returned none);
	// zero when the interaction sent no SELECT.
	ttfr time.Duration
	sim  sim.Micros // simulated response time, the paper's τ
	// code is the MySQL error code of a failed interaction, 0 on success.
	code uint16
}

// driver runs one connection's interactions.
type driver interface {
	// interaction runs the connection's next interaction. A MySQL error is
	// reported in the sample; any other error (a broken connection) ends
	// the run.
	interaction() (sample, error)
}

// conn is one client connection and its workload driver.
type conn struct {
	c       *server.Client
	drv     driver
	ct      *connTrace // nil when untraced
	lastSim int64
}

// dial opens one client connection, counting its bytes when traced.
func dial(d *deployment, ct *connTrace) (*server.Client, error) {
	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	if ct != nil {
		ct.conn = &countingConn{Conn: nc}
		nc = ct.conn
	}
	c, err := server.NewClient(nc, "tpcwbench", "")
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// errCode returns the MySQL error code of a statement error, or ok=false
// for an error that is not a server reply.
func errCode(err error) (uint16, bool) {
	var me *server.MySQLError
	if errors.As(err, &me) {
		return me.Code, true
	}
	return 0, false
}

// phase is the measurement of one closed-loop run of all connections.
type phase struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
	// peakLive is the largest live heap a GC reported during the phase.
	peakLive uint64
	// allocBytes and gcCPU are the runtime's allocation and GC CPU over the
	// phase.
	allocBytes uint64
	gcCPU      time.Duration
	gate       server.GateStats
	walSyncs   int64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() (live, allocs uint64, gcCPU time.Duration) {
	s := make([]metrics.Sample, len(runtimeMetrics))
	copy(s, runtimeMetrics)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), time.Duration(s[2].Value.Float64() * 1e9)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives every connection in a closed loop until dur has passed; each
// connection finishes the interaction it is in. The heap is collected first
// so that garbage from set-up is not collected, and charged, inside the
// phase.
func run(d *deployment, cs []*conn, dur time.Duration) (*phase, error) {
	for _, c := range cs {
		v, err := c.c.SimMicros()
		if err != nil {
			return nil, err
		}
		c.lastSim = v
	}
	runtime.GC()
	p := &phase{}
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			live, _, _ := readRuntime()
			p.peakLive = max(p.peakLive, live)
			select {
			case <-stopSampler:
				return
			case <-t.C:
			}
		}
	}()

	gate0, wal0 := d.srv.Stats().Admission, d.sys.Store.WALSyncs()
	_, alloc0, gc0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	out := make([][]sample, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, err := c.drv.interaction()
				if err != nil {
					errs[i] = fmt.Errorf("connection %d: %w", i, err)
					return
				}
				// The sysvar read is charge-free and outside the timed
				// interaction.
				now, err := c.c.SimMicros()
				if err != nil {
					errs[i] = fmt.Errorf("connection %d: reading simulated time: %w", i, err)
					return
				}
				s.sim, c.lastSim = sim.Micros(now-c.lastSim), now
				out[i] = append(out[i], s)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	_, alloc1, gc1 := readRuntime()
	close(stopSampler)
	sampler.Wait()
	p.allocBytes, p.gcCPU = alloc1-alloc0, gc1-gc0
	gate1 := d.srv.Stats().Admission
	p.gate = server.GateStats{Queued: gate1.Queued - gate0.Queued, Rejected: gate1.Rejected - gate0.Rejected}
	p.walSyncs = d.sys.Store.WALSyncs() - wal0
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, o := range out {
		p.samples = append(p.samples, o...)
	}
	return p, nil
}

// ok returns the successful samples.
func (p *phase) ok() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.code == 0 {
			out = append(out, s)
		}
	}
	return out
}

// failures counts failed interactions by MySQL error code.
func (p *phase) failures() map[uint16]int {
	m := map[uint16]int{}
	for _, s := range p.samples {
		if s.code != 0 {
			m[s.code]++
		}
	}
	return m
}

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(vals []float64) dist {
	sort.Float64s(vals)
	return dist(vals)
}

// p50 is the nearest-rank median.
func (d dist) p50() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[(len(d)+1)/2-1]
}

// tail is the highest percentile with at least ten samples beyond it: the
// value with exactly ten larger ranks, and that percentile.
func (d dist) tail() (float64, float64) {
	if len(d) <= 10 {
		return math.NaN(), 0
	}
	i := len(d) - 11
	return d[i], 100 * float64(i+1) / float64(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
