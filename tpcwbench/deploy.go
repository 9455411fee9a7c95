package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// Database scales. The TPC-W database has half the paper's smallest scale
// (500 customers: 5k items, 5k orders, ~15k order lines), so that three
// set-ups fit in a run. The micro schema has a tenth of Figure 10's 2,500
// customers and a tenth of the store's default split threshold, so Figure
// 9's Q2 view (100 order lines per customer) spans two regions — the
// scatter-gather scan pool runs — as at 2,500 customers, while a scan
// takes a tenth of the time. The seed adds up to 7 micro customers, so the
// simulated scan times differ between seeds as the data does.
const (
	tpcwCustomers       = 500
	microCustomers      = 250
	microSplitThreshold = 20_000
)

// deployment is one served system: a synergy.System with the serving
// defaults (batched, transaction-scoped writes) behind a server.Server on
// loopback TCP.
type deployment struct {
	sys  *synergy.System
	sch  *schema.Schema
	data *tpcw.Data // TPC-W id spaces and cart lines; nil for the micro schema
	// cards holds the micro schema's base-table cardinalities.
	cards map[string]int

	srv   *server.Server
	ln    net.Listener
	addr  string
	serve chan error

	// tracer, when set, wraps the sessions of connections opened from then
	// on (see tracer.session).
	tracer atomic.Pointer[tracer]
}

func (d *deployment) newSession() server.Session {
	s := server.NewSystemSession(d.sys)
	if tr := d.tracer.Load(); tr != nil {
		return tr.session(s)
	}
	return s
}

// start serves the deployment on an ephemeral loopback port.
func (d *deployment) start() error {
	srv, err := server.New(server.Config{
		Backends: []server.Backend{{Name: "synergy", NewSession: d.newSession}},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv, d.ln, d.addr, d.serve = srv, ln, ln.Addr().String(), make(chan error, 1)
	go func() { d.serve <- srv.Serve(ln) }()
	return nil
}

// close stops the server and waits for its accept loop to return. The
// listener is closed here too: Serve closes only a listener it has started
// on, and a server closed right after set-up may not have started yet.
func (d *deployment) close() {
	if d.srv == nil {
		return
	}
	d.srv.Close()
	d.ln.Close()
	<-d.serve // "closed" when Serve had not started: nothing to report
	d.srv = nil
}

// baseBytes is the stored size of the schema's base relations alone (no
// indexes, views or lock tables): storage_amp's denominator.
func (d *deployment) baseBytes() int64 {
	var n int64
	for _, r := range d.sch.Relations() {
		n += d.sys.Store.TableBytes(r.Name)
	}
	return n
}

// load bulk-loads generated tables in name order, so store timestamps do
// not depend on map iteration order, then materializes the views.
func load(sys *synergy.System, tables map[string][]schema.Row) error {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := sys.LoadBase(name, tables[name]); err != nil {
			return fmt.Errorf("loading %s: %w", name, err)
		}
	}
	return sys.BuildViews()
}

// setupTPCW generates the TPC-W database and deploys it with Synergy's
// views under the given concurrency mode: Hierarchical is the Synergy
// system, MVCC with 16 versions is MVCC-A (§IX-D2).
func setupTPCW(seed int64, mode synergy.ConcurrencyMode) (*deployment, error) {
	data := tpcw.Generate(tpcwCustomers, seed)
	cfg := synergy.Config{Concurrency: mode, BaseIndexes: tpcw.BaseIndexes()}
	if mode == synergy.MVCC {
		cfg.MaxVersions = 16
	}
	sch := tpcw.Schema()
	sys, err := synergy.New(sch, tpcw.Roots(), tpcw.WorkloadSQL(), cfg)
	if err != nil {
		return nil, err
	}
	if err := load(sys, data.Tables); err != nil {
		return nil, err
	}
	data.Tables = nil // the store holds the rows now; keep the id spaces
	d := &deployment{sys: sys, sch: sch, data: data}
	return d, d.start()
}

// setupMicro generates Figure 8's micro schema and deploys it with its two
// Figure 9 views under hierarchical locking.
func setupMicro(seed int64) (*deployment, error) {
	tables := tpcw.MicroGenerate(microCustomers+int(uint64(seed)%8), seed)
	sch := tpcw.MicroSchema()
	sys, err := synergy.New(sch, tpcw.MicroRoots(), tpcw.MicroWorkloadSQL(),
		synergy.Config{Concurrency: synergy.Hierarchical, SplitThreshold: microSplitThreshold})
	if err != nil {
		return nil, err
	}
	cards := map[string]int{}
	for name, rows := range tables {
		cards[name] = len(rows)
	}
	if err := load(sys, tables); err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, sch: sch, cards: cards}
	return d, d.start()
}

// setupRepeated builds the deployment n times and keeps the last, timing
// each build from data generation to a listening server. Earlier builds are
// closed and collected before the next starts, so each is timed from the
// same heap state.
func setupRepeated(n int, build func() (*deployment, error)) (*deployment, []float64, error) {
	var d *deployment
	var secs []float64
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = build(); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return d, secs, nil
}
