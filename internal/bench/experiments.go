package bench

import (
	"fmt"
	"strings"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// ---------------------------------------------------------------------------
// Figure 10 — micro-benchmark: view scan vs join algorithm

// Figure10Row is one (scale, query) cell of Figure 10.
type Figure10Row struct {
	Customers int
	Query     string // "Q1" (2-way) or "Q2" (3-way)
	ViewScan  Measurement
	JoinAlgo  Measurement
}

// Speedup reports the view-scan advantage.
func (r Figure10Row) Speedup() float64 {
	if r.ViewScan.Mean == 0 {
		return 0
	}
	return r.JoinAlgo.Mean / r.ViewScan.Mean
}

// RunFigure10 regenerates Figure 10: for each database scale, the response
// time of the micro-benchmark joins evaluated via the join algorithm and via
// a scan of the materialized view (§IX-B2). The database scale is the number
// of customers with 1:10 customer:order and order:order-line ratios.
func RunFigure10(scales []int, reps int, seed int64, costs *sim.Costs) ([]Figure10Row, error) {
	if len(scales) == 0 {
		scales = []int{500, 5000, 50000}
	}
	rng := sim.NewRNG(seed)
	var out []Figure10Row
	for _, scale := range scales {
		sys, err := synergy.New(tpcw.MicroSchema(), tpcw.MicroRoots(), tpcw.MicroWorkloadSQL(), synergy.Config{Costs: costs})
		if err != nil {
			return nil, err
		}
		for table, rows := range tpcw.MicroGenerate(scale, seed) {
			if err := sys.LoadBase(table, rows); err != nil {
				return nil, err
			}
		}
		if err := sys.BuildViews(); err != nil {
			return nil, err
		}
		queries := []struct {
			name string
			sel  *sqlparser.SelectStmt
		}{
			{"Q1", sys.Design.Workload.Selects()[0]},
			{"Q2", sys.Design.Workload.Selects()[1]},
		}
		for _, q := range queries {
			row := Figure10Row{Customers: scale, Query: q.name}
			m, err := measure(reps, rng.Derive(fmt.Sprintf("f10/view/%d/%s", scale, q.name)), func(int) (sim.Micros, error) {
				ctx := sim.NewCtx()
				_, err := sys.Query(ctx, q.sel, nil) // rewritten: view scan
				return ctx.Elapsed(), err
			})
			if err != nil {
				return nil, err
			}
			row.ViewScan = m
			m, err = measure(reps, rng.Derive(fmt.Sprintf("f10/join/%d/%s", scale, q.name)), func(int) (sim.Micros, error) {
				ctx := sim.NewCtx()
				cur, err := sys.Engine.QueryStream(ctx, q.sel, nil) // base tables: join algorithm
				if err == nil {
					_, err = phoenix.DrainCursor(ctx, cur)
				}
				return ctx.Elapsed(), err
			})
			if err != nil {
				return nil, err
			}
			row.JoinAlgo = m
			out = append(out, row)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 11 — two-phase row locking overhead

// Figure11Row is one lock-count measurement.
type Figure11Row struct {
	Locks    int
	Overhead Measurement
}

// RunFigure11 regenerates Figure 11: the client-measured overhead of
// acquiring and releasing N row locks in HBase via checkAndPut, from a cold
// client (§IX-C).
func RunFigure11(counts []int, reps int, seed int64, costs *sim.Costs) ([]Figure11Row, error) {
	if len(counts) == 0 {
		counts = []int{10, 100, 1000}
	}
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	rng := sim.NewRNG(seed)
	var out []Figure11Row
	for _, n := range counts {
		cl := cluster.NewDefault(costs)
		store := hbase.NewHCluster(cl, nil, nil)
		lm := synergy.NewLockManager(store)
		if err := lm.CreateLockTables([]string{"FIG11"}); err != nil {
			return nil, err
		}
		// Populate lock entries.
		entries := make([]hbase.BulkRow, 0, n)
		for i := 0; i < n; i++ {
			entries = append(entries, hbase.BulkRow{Key: schema.EncodeKey(int64(i))})
		}
		if err := lm.BulkCreateEntries("FIG11", entries); err != nil {
			return nil, err
		}
		m, err := measure(reps, rng.Derive(fmt.Sprintf("f11/%d", n)), func(int) (sim.Micros, error) {
			ctx := sim.NewCtx()
			client := store.NewClient() // cold: pays connection setup
			for i := 0; i < n; i++ {
				if err := lm.AcquireWith(ctx, client, "FIG11", schema.EncodeKey(int64(i))); err != nil {
					return 0, err
				}
			}
			for i := 0; i < n; i++ {
				if err := lm.ReleaseWith(ctx, client, "FIG11", schema.EncodeKey(int64(i))); err != nil {
					return 0, err
				}
			}
			return ctx.Elapsed(), nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure11Row{Locks: n, Overhead: m})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 12 and 14 — TPC-W statement response times across systems

// GridResult holds per-statement, per-system measurements.
type GridResult struct {
	Statements []string
	Systems    []string
	Cells      map[string]map[string]Measurement // stmt -> system -> measurement
}

func runGrid(set *SystemSet, stmts []tpcw.Stmt, reps int, seed int64) (*GridResult, error) {
	res := &GridResult{Cells: map[string]map[string]Measurement{}}
	for _, sys := range set.All() {
		res.Systems = append(res.Systems, sys.Name())
	}
	rng := sim.NewRNG(seed)
	for _, st := range stmts {
		res.Statements = append(res.Statements, st.ID)
		res.Cells[st.ID] = map[string]Measurement{}
		// Every system sees the identical parameter sequence so the
		// comparison is apples to apples.
		paramSets := make([][]schema.Value, reps)
		pstream := rng.Derive("params/" + st.ID)
		for r := range paramSets {
			paramSets[r] = st.Params(set.Data, pstream)
		}
		for _, sys := range set.All() {
			if !sys.Supported(st) {
				res.Cells[st.ID][sys.Name()] = Measurement{} // N == 0 renders X
				continue
			}
			m, err := measure(reps, rng.Derive("noise/"+st.ID+"/"+sys.Name()), func(rep int) (sim.Micros, error) {
				ctx := sim.NewCtx()
				err := sys.Run(ctx, st, paramSets[rep])
				return ctx.Elapsed(), err
			})
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", st.ID, sys.Name(), err)
			}
			res.Cells[st.ID][sys.Name()] = m
		}
	}
	return res, nil
}

// RunFigure12 regenerates Figure 12: join queries Q1-Q11 across the five
// systems.
func RunFigure12(set *SystemSet, reps int, seed int64) (*GridResult, error) {
	return runGrid(set, tpcw.JoinQueries(), reps, seed)
}

// RunFigure14 regenerates Figure 14: write statements W1-W13 across the five
// systems.
func RunFigure14(set *SystemSet, reps int, seed int64) (*GridResult, error) {
	return runGrid(set, tpcw.WriteStatements(), reps, seed)
}

// MeanOver averages a system's column over a statement subset (used for the
// "on average Synergy is Nx faster" discussion numbers).
func (g *GridResult) MeanOver(system string, stmts []string) float64 {
	var sum float64
	n := 0
	for _, s := range stmts {
		m, ok := g.Cells[s][system]
		if !ok || m.N == 0 {
			continue
		}
		sum += m.Mean
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SupportedBy lists statements a system has measurements for.
func (g *GridResult) SupportedBy(system string) []string {
	var out []string
	for _, s := range g.Statements {
		if m, ok := g.Cells[s][system]; ok && m.N > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table II — sum of response times of all statements

// TableIIRow is one system's full-benchmark response time.
type TableIIRow struct {
	System string
	Total  Measurement // seconds
}

// RunTableII regenerates Table II: the sum of the response times of every
// statement in the workload, per HBase-backed system (VoltDB excluded, as it
// does not support all queries).
func RunTableII(set *SystemSet, reps int, seed int64) ([]TableIIRow, error) {
	rng := sim.NewRNG(seed)
	stmts := tpcw.AllStatements()
	// Shared parameter sequences: all systems run the same values.
	paramSets := make([][][]schema.Value, reps)
	pstream := rng.Derive("t2/params")
	for r := range paramSets {
		paramSets[r] = make([][]schema.Value, len(stmts))
		for i, st := range stmts {
			paramSets[r][i] = st.Params(set.Data, pstream)
		}
	}
	var out []TableIIRow
	for _, sys := range set.HBaseSystems() {
		noise := rng.Derive("t2/noise/" + sys.Name())
		samples := make([]sim.Micros, 0, reps)
		for rep := 0; rep < reps; rep++ {
			var total sim.Micros
			for i, st := range stmts {
				ctx := sim.NewCtx()
				if err := sys.Run(ctx, st, paramSets[rep][i]); err != nil {
					return nil, fmt.Errorf("%s on %s: %w", st.ID, sys.Name(), err)
				}
				// Measurement noise applies per statement; the
				// aggregate's relative noise shrinks as 1/sqrt(n).
				total += noise.Jitter(ctx.Elapsed(), 0.02)
			}
			samples = append(samples, total)
		}
		m := Summarize(samples)
		// Report in seconds as the paper does.
		m.Mean /= 1000
		m.StdErr /= 1000
		out = append(out, TableIIRow{System: sys.Name(), Total: m})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table III — database sizes

// TableIIIRow is one system's storage footprint.
type TableIIIRow struct {
	System string
	// MeasuredBytes at the generated scale.
	MeasuredBytes int64
	// ExtrapolatedGB scales linearly to the paper's 1M customers.
	ExtrapolatedGB float64
}

// RunTableIII regenerates Table III: database sizes across systems,
// extrapolated linearly from the generated scale to 1M customers.
func RunTableIII(set *SystemSet) []TableIIIRow {
	scale := float64(1_000_000) / float64(set.Data.Card.Customers)
	var out []TableIIIRow
	for _, sys := range set.All() {
		b := sys.DatabaseBytes()
		out = append(out, TableIIIRow{
			System:         sys.Name(),
			MeasuredBytes:  b,
			ExtrapolatedGB: float64(b) * scale / 1e9,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Static artifacts

// Figure13Matrix renders the mechanisms matrix of Figure 13.
func Figure13Matrix() string {
	var b strings.Builder
	w := func(cols ...string) {
		fmt.Fprintf(&b, "%-22s %-26s %-26s\n", cols[0], cols[1], cols[2])
	}
	b.WriteString("Figure 13: mechanisms used in each evaluated system\n")
	w("System", "MV Selection", "Concurrency Control")
	w("------", "------------", "-------------------")
	w("VoltDB", "None", "Single-threaded partitions")
	w("Synergy", "Schema-relationships aware", "Hierarchical locking")
	w("MVCC-A", "Schema-relationships aware", "MVCC")
	w("MVCC-UA", "Schema-relationships UNaware", "MVCC")
	w("Baseline", "None", "MVCC")
	// Beyond the paper: the optimistic third mechanism this reproduction
	// adds to the comparison (see the contention sweep).
	w("Synergy-OCC", "Schema-relationships aware", "OCC (backward validation)")
	return b.String()
}

// TableIQualitative renders Table I.
func TableIQualitative() string {
	var b strings.Builder
	w := func(cols ...string) {
		fmt.Fprintf(&b, "%-10s %-18s %-34s %-38s %-16s\n", cols[0], cols[1], cols[2], cols[3], cols[4])
	}
	b.WriteString("Table I: qualitative comparison of NoSQL, NewSQL and Synergy systems\n")
	w("System", "Scalability", "Query Expressiveness", "Transaction Support", "Disk Utilization")
	w("------", "-----------", "--------------------", "-------------------", "----------------")
	w("NoSQL", "Linear scale out", "SQL", "ACID, snapshot isolation", "Higher than NewSQL")
	w("NewSQL", "Linear scale out", "SQL, joins on partition keys", "ACID, serializable isolation", "Lowest")
	w("Synergy", "Linear scale out", "SQL, MVs on key/foreign-key joins", "ACID, read-committed isolation", "Highest")
	return b.String()
}
