// Package repro_test holds the testing.B benchmark harness: one benchmark
// per figure and table of the paper's evaluation (§IX). Each benchmark
// executes the experiment's real work and reports the simulated response
// time the corresponding figure plots as the custom metric "sim-ms/op"
// (wall-clock ns/op measures the simulator, not the modeled system).
//
// The full-size sweeps live in cmd/synergy-bench; benchmarks here run at a
// laptop scale that preserves the shapes.
package repro_test

import (
	"sync"
	"testing"

	"synergy/internal/bench"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// ---------------------------------------------------------------------------
// Shared fixtures

var (
	setOnce sync.Once
	set     *bench.SystemSet
	setErr  error

	microOnce sync.Once
	microSys  *synergy.System
	microErr  error
)

func systems(b *testing.B) *bench.SystemSet {
	b.Helper()
	setOnce.Do(func() {
		set, setErr = bench.BuildSystems(100, 42, nil)
	})
	if setErr != nil {
		b.Fatal(setErr)
	}
	return set
}

func micro(b *testing.B) *synergy.System {
	b.Helper()
	microOnce.Do(func() {
		microSys, microErr = synergy.New(tpcw.MicroSchema(), tpcw.MicroRoots(), tpcw.MicroWorkloadSQL(), synergy.Config{})
		if microErr != nil {
			return
		}
		for table, rows := range tpcw.MicroGenerate(300, 1) {
			if microErr = microSys.LoadBase(table, rows); microErr != nil {
				return
			}
		}
		microErr = microSys.BuildViews()
	})
	if microErr != nil {
		b.Fatal(microErr)
	}
	return microSys
}

// reportSim attaches the simulated latency metric.
func reportSim(b *testing.B, total sim.Micros) {
	b.ReportMetric(total.Milliseconds()/float64(b.N), "sim-ms/op")
}

// ---------------------------------------------------------------------------
// Figure 10 — micro-benchmark: view scan vs join algorithm

func benchmarkMicro(b *testing.B, queryIdx int, useView bool) {
	sys := micro(b)
	sel := sys.Design.Workload.Selects()[queryIdx]
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		var err error
		if useView {
			_, err = sys.Query(ctx, sel, nil)
		} else {
			var cur phoenix.RowCursor
			if cur, err = sys.Engine.QueryStream(ctx, sel, nil); err == nil {
				_, err = phoenix.DrainCursor(ctx, cur)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

func BenchmarkFigure10_Q1_ViewScan(b *testing.B)      { benchmarkMicro(b, 0, true) }
func BenchmarkFigure10_Q1_JoinAlgorithm(b *testing.B) { benchmarkMicro(b, 0, false) }
func BenchmarkFigure10_Q2_ViewScan(b *testing.B)      { benchmarkMicro(b, 1, true) }
func BenchmarkFigure10_Q2_JoinAlgorithm(b *testing.B) { benchmarkMicro(b, 1, false) }

// ---------------------------------------------------------------------------
// Figure 11 — lock acquire/release overhead

func benchmarkLocks(b *testing.B, n int) {
	rows, err := bench.RunFigure11([]int{n}, 1, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	b.ResetTimer()
	var total sim.Micros
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFigure11([]int{n}, 1, int64(i), nil)
		if err != nil {
			b.Fatal(err)
		}
		total += sim.FromMillis(r[0].Overhead.Mean)
	}
	reportSim(b, total)
}

func BenchmarkFigure11_Locks10(b *testing.B)   { benchmarkLocks(b, 10) }
func BenchmarkFigure11_Locks100(b *testing.B)  { benchmarkLocks(b, 100) }
func BenchmarkFigure11_Locks1000(b *testing.B) { benchmarkLocks(b, 1000) }

// ---------------------------------------------------------------------------
// Figure 12 — TPC-W join queries per system

func benchmarkJoins(b *testing.B, pick func(*bench.SystemSet) bench.EvalSystem) {
	s := systems(b)
	sys := pick(s)
	stmts := tpcw.JoinQueries()
	rng := sim.NewRNG(3)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stmts {
			if !sys.Supported(st) {
				continue
			}
			ctx := sim.NewCtx()
			if err := sys.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
				b.Fatal(err)
			}
			total += ctx.Elapsed()
		}
	}
	reportSim(b, total)
}

func BenchmarkFigure12_Joins_Synergy(b *testing.B) {
	benchmarkJoins(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Synergy })
}
func BenchmarkFigure12_Joins_MVCCA(b *testing.B) {
	benchmarkJoins(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCA })
}
func BenchmarkFigure12_Joins_MVCCUA(b *testing.B) {
	benchmarkJoins(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCUA })
}
func BenchmarkFigure12_Joins_Baseline(b *testing.B) {
	benchmarkJoins(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Baseline })
}
func BenchmarkFigure12_Joins_VoltDB(b *testing.B) {
	benchmarkJoins(b, func(s *bench.SystemSet) bench.EvalSystem { return s.VoltDB })
}

// ---------------------------------------------------------------------------
// Figure 14 — TPC-W write statements per system

func benchmarkWrites(b *testing.B, pick func(*bench.SystemSet) bench.EvalSystem) {
	s := systems(b)
	sys := pick(s)
	stmts := tpcw.WriteStatements()
	rng := sim.NewRNG(5)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stmts {
			ctx := sim.NewCtx()
			if err := sys.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
				b.Fatal(err)
			}
			total += ctx.Elapsed()
		}
	}
	reportSim(b, total)
}

func BenchmarkFigure14_Writes_Synergy(b *testing.B) {
	benchmarkWrites(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Synergy })
}
func BenchmarkFigure14_Writes_MVCCA(b *testing.B) {
	benchmarkWrites(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCA })
}
func BenchmarkFigure14_Writes_MVCCUA(b *testing.B) {
	benchmarkWrites(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCUA })
}
func BenchmarkFigure14_Writes_Baseline(b *testing.B) {
	benchmarkWrites(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Baseline })
}
func BenchmarkFigure14_Writes_VoltDB(b *testing.B) {
	benchmarkWrites(b, func(s *bench.SystemSet) bench.EvalSystem { return s.VoltDB })
}

// ---------------------------------------------------------------------------
// Table II — full-workload response time per system

func benchmarkFullWorkload(b *testing.B, pick func(*bench.SystemSet) bench.EvalSystem) {
	s := systems(b)
	sys := pick(s)
	stmts := tpcw.AllStatements()
	rng := sim.NewRNG(9)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stmts {
			if !sys.Supported(st) {
				continue
			}
			ctx := sim.NewCtx()
			if err := sys.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
				b.Fatal(err)
			}
			total += ctx.Elapsed()
		}
	}
	reportSim(b, total)
}

func BenchmarkTableII_Synergy(b *testing.B) {
	benchmarkFullWorkload(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Synergy })
}
func BenchmarkTableII_MVCCA(b *testing.B) {
	benchmarkFullWorkload(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCA })
}
func BenchmarkTableII_MVCCUA(b *testing.B) {
	benchmarkFullWorkload(b, func(s *bench.SystemSet) bench.EvalSystem { return s.MVCCUA })
}
func BenchmarkTableII_Baseline(b *testing.B) {
	benchmarkFullWorkload(b, func(s *bench.SystemSet) bench.EvalSystem { return s.Baseline })
}

// ---------------------------------------------------------------------------
// Table III — storage accounting

func BenchmarkTableIII_Storage(b *testing.B) {
	s := systems(b)
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytes = 0
		for _, sys := range s.All() {
			bytes += sys.DatabaseBytes()
		}
	}
	b.ReportMetric(float64(bytes)/1e6, "total-MB")
}

// ---------------------------------------------------------------------------
// Ablations — design-choice benchmarks DESIGN.md calls out

// Hierarchical locking vs MVCC on the same views (the Synergy vs MVCC-A
// delta isolated to concurrency control).
func BenchmarkAblation_WriteW13_HierarchicalLock(b *testing.B) {
	s := systems(b)
	st, _ := tpcw.StatementByID("W13")
	rng := sim.NewRNG(11)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if err := s.Synergy.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

func BenchmarkAblation_WriteW13_MVCC(b *testing.B) {
	s := systems(b)
	st, _ := tpcw.StatementByID("W13")
	rng := sim.NewRNG(11)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if err := s.MVCCA.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

// View-index ablation: Q4 (filter on i_subject) through the view with its
// §VI-C index vs the bare view scan path on base tables.
func BenchmarkAblation_Q4_WithViewIndex(b *testing.B) {
	s := systems(b)
	st, _ := tpcw.StatementByID("Q4")
	rng := sim.NewRNG(13)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if err := s.Synergy.Run(ctx, st, st.Params(s.Data, rng)); err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

func BenchmarkAblation_Q4_BaseJoin(b *testing.B) {
	s := systems(b)
	st, _ := tpcw.StatementByID("Q4")
	sel := sqlparser.MustParse(st.SQL).(*sqlparser.SelectStmt)
	rng := sim.NewRNG(13)
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		params := st.Params(s.Data, rng)
		cur, err := s.Synergy.System().Engine.QueryStream(ctx, sel, params)
		if err == nil {
			_, err = phoenix.DrainCursor(ctx, cur)
		}
		if err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

// Single-lock vs per-row locking: the motivating overhead comparison of
// §III-2 — one hierarchical lock versus acquiring a row lock per affected
// view row.
func BenchmarkAblation_SingleLockPerTxn(b *testing.B) {
	s := systems(b)
	lm := s.Synergy.System().Locks
	key := schema.EncodeKey(int64(1))
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		if err := lm.Acquire(ctx, "Customer", key); err != nil {
			b.Fatal(err)
		}
		if err := lm.Release(ctx, "Customer", key); err != nil {
			b.Fatal(err)
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}

func BenchmarkAblation_HundredRowLocks(b *testing.B) {
	s := systems(b)
	lm := s.Synergy.System().Locks
	var total sim.Micros
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := sim.NewCtx()
		for k := int64(1); k <= 100; k++ {
			if err := lm.Acquire(ctx, "Customer", schema.EncodeKey(k)); err != nil {
				b.Fatal(err)
			}
		}
		for k := int64(1); k <= 100; k++ {
			if err := lm.Release(ctx, "Customer", schema.EncodeKey(k)); err != nil {
				b.Fatal(err)
			}
		}
		total += ctx.Elapsed()
	}
	reportSim(b, total)
}
