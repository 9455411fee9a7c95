package occ

import (
	"errors"
	"testing"
	"time"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// drain materializes a QueryStream call's result, closing the cursor:
// rs, err := drain(ctx)(s.QueryStream(ctx, sel, params)).
func drain(ctx *sim.Ctx) func(phoenix.RowCursor, error) (*phoenix.ResultSet, error) {
	return func(cur phoenix.RowCursor, err error) (*phoenix.ResultSet, error) {
		if err != nil {
			return nil, err
		}
		return phoenix.DrainCursor(ctx, cur)
	}
}

// newSession builds an Account table over a fresh store and a validator
// sharing the store's timestamp oracle — the deployment wiring: begin
// snapshots must order consistently against flush-time cell stamps.
func newSession(t testing.TB) *Session {
	t.Helper()
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := phoenix.NewCatalog(hc)
	rel := &schema.Relation{
		Name: "Account",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "bal", Type: schema.TInt},
			{Name: "owner", Type: schema.TString},
		},
		PK: []string{"id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{MaxVersions: 1000}); err != nil {
		t.Fatal(err)
	}
	return NewSession(phoenix.NewEngine(cat), NewValidatorWithOracle(hc.Costs(), hc.NextTS))
}

func insert(t testing.TB, s *Session, id, bal int64, owner string) {
	t.Helper()
	stmt := sqlparser.MustParse("INSERT INTO Account (id, bal, owner) VALUES (?, ?, ?)")
	if err := s.Exec(sim.NewCtx(), stmt, []schema.Value{id, bal, owner}); err != nil {
		t.Fatal(err)
	}
}

func balance(t testing.TB, s *Session, id int64) (int64, bool) {
	t.Helper()
	sel := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	ctx := sim.NewCtx()
	rs, err := drain(ctx)(s.QueryStream(ctx, sel, []schema.Value{id}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		return 0, false
	}
	return rs.Rows[0]["bal"].(int64), true
}

// TestBackwardValidationPointConflict: a transaction that read a row another
// transaction wrote and committed while it ran fails validation; disjoint
// transactions both commit.
func TestBackwardValidationPointConflict(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	insert(t, s, 2, 200, "bob")

	ctx := sim.NewCtx()
	up := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")

	// t1 reads (and writes) row 1; a concurrent transaction commits a write
	// to row 1 first.
	t1 := s.BeginTxn(ctx)
	if err := t1.Exec(ctx, up, []schema.Value{int64(111), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(ctx, up, []schema.Value{int64(150), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after overlapping committed write = %v, want ErrConflict", err)
	}
	if bal, _ := balance(t, s, 1); bal != 150 {
		t.Fatalf("bal = %d, want the committed writer's 150 (loser flushed nothing)", bal)
	}

	// Disjoint rows: both commit.
	t2 := s.BeginTxn(ctx)
	if err := t2.Exec(ctx, up, []schema.Value{int64(222), int64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(ctx, up, []schema.Value{int64(151), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); err != nil {
		t.Fatalf("disjoint commit: %v", err)
	}
	if bal, _ := balance(t, s, 2); bal != 222 {
		t.Fatalf("bal = %d, want 222", bal)
	}
}

// TestScanRangeCatchesPhantom: a transaction whose query scanned a range
// conflicts with a concurrently committed INSERT into that range, even
// though the scan never returned the inserted row — the read set records
// ranges, not returned keys.
func TestScanRangeCatchesPhantom(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

	ctx := sim.NewCtx()
	t1 := s.BeginTxn(ctx)
	sum := sqlparser.MustParse("SELECT id, bal FROM Account").(*sqlparser.SelectStmt)
	if _, err := drain(ctx)(t1.QueryStream(ctx, sum, nil)); err != nil {
		t.Fatal(err)
	}
	// t1's write depends on the scan; give it one.
	if err := t1.Exec(ctx, sqlparser.MustParse("UPDATE Account SET owner = ? WHERE id = ?"),
		[]schema.Value{"sum-holder", int64(1)}); err != nil {
		t.Fatal(err)
	}

	// A concurrent transaction inserts a row into the scanned range and
	// commits.
	insert(t, s, 9, 900, "phantom")

	if err := t1.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after phantom insert = %v, want ErrConflict", err)
	}
}

// TestSnapshotHorizonExcludesInFlightFlush pins the watermark mechanism: a
// snapshot taken while a validated commit is still flushing sits at the
// commit's flush watermark (so every one of its cells, stamped above the
// watermark, is hidden), and rises past it once the flush finalizes.
func TestSnapshotHorizonExcludesInFlightFlush(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()

	tx := v.Begin(ctx) // begin ts 1
	tx.RecordWrite("T", "k")
	if err := v.Validate(ctx, tx, nil); err != nil { // watermark ts 2
		t.Fatal(err)
	}
	during := v.SnapshotTS(ctx) // allocates ts 3, pinned to watermark 2
	if during != 2 {
		t.Fatalf("snapshot during flush = %d, want the flush watermark 2", during)
	}
	v.Finalize(ctx, tx)
	after := v.SnapshotTS(ctx) // allocates ts 4, no watermark in flight
	if after != 4 {
		t.Fatalf("snapshot after finalize = %d, want 4", after)
	}
}

// TestCommittedWriteSetsPruned: write sets are retained only while a
// transaction that could conflict with them is active.
func TestCommittedWriteSetsPruned(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()
	for i := 0; i < 100; i++ {
		tx := v.Begin(ctx)
		tx.RecordWrite("T", "k")
		if err := v.Validate(ctx, tx, nil); err != nil {
			t.Fatal(err)
		}
		v.Finalize(ctx, tx)
	}
	if st := v.Stats(); st.RetainedWriteSets != 0 {
		t.Fatalf("retained write sets = %d with no active transactions, want 0", st.RetainedWriteSets)
	}

	// An active reader pins the records committed after its snapshot.
	reader := v.Begin(ctx)
	for i := 0; i < 5; i++ {
		tx := v.Begin(ctx)
		tx.RecordWrite("T", "k")
		if err := v.Validate(ctx, tx, nil); err != nil {
			t.Fatal(err)
		}
		v.Finalize(ctx, tx)
	}
	if st := v.Stats(); st.RetainedWriteSets != 5 {
		t.Fatalf("retained write sets = %d with an active reader, want 5", st.RetainedWriteSets)
	}
	v.Abort(ctx, reader)
}

// TestBeginDuringFlushWindowConflicts is the GC-horizon regression: a
// commit's write set must survive garbage collection while its flush is in
// flight, because a transaction that begins inside the flush window holds a
// snapshot below the watermark and must conflict with it at validation —
// pruning the record would let the stale read commit a lost update.
func TestBeginDuringFlushWindowConflicts(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()

	t1 := v.Begin(ctx)
	t1.RecordWrite("T", "x")
	if err := v.Validate(ctx, t1, nil); err != nil { // validated, flush in flight
		t.Fatal(err)
	}
	t2 := v.Begin(ctx) // snapshot pinned below t1's flush watermark
	t2.rs.AddPoint("T", "x")
	t2.RecordWrite("T", "x")
	v.Finalize(ctx, t1)
	if err := v.Validate(ctx, t2, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("validate = %v, want ErrConflict: t2 read x below t1's watermark (lost update)", err)
	}
}

// TestStampsReservedAtValidationKeepCommitsAtomic pins the fix for the
// stamp-straddling hazard: because a commit's cell timestamps are reserved
// inside the validation critical section, another transaction's watermark
// (or a snapshot) can never land between them. A snapshot lowered to a
// later commit's watermark therefore sees ALL of an earlier finalized
// commit's cells — under flush-time stamping it could see none (or part)
// of them while validation skipped the record as "older than the
// snapshot": an unvalidated stale read.
func TestStampsReservedAtValidationKeepCommitsAtomic(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()

	// A validates with two pending mutations: watermark 2, stamps 3 and 4.
	a := v.Begin(ctx) // ts 1
	a.RecordWrite("T", "x")
	var aStamps []int64
	if err := v.Validate(ctx, a, func(next func() int64) int {
		aStamps = append(aStamps, next(), next())
		return len(aStamps)
	}); err != nil {
		t.Fatal(err)
	}
	v.Finalize(ctx, a)

	// B validates next (watermark 6 after its begin 5) and is mid-flush
	// when C begins: C's horizon drops to B's watermark.
	b := v.Begin(ctx)
	b.RecordWrite("T", "y")
	if err := v.Validate(ctx, b, nil); err != nil {
		t.Fatal(err)
	}
	c := v.Begin(ctx)
	for _, ts := range aStamps {
		if ts > c.Snapshot() {
			t.Fatalf("snapshot %d (lowered to B's watermark) excludes finalized commit A's cell at %d — torn/invisible committed data",
				c.Snapshot(), ts)
		}
	}
	v.Finalize(ctx, b)
	v.Abort(ctx, c)
}

// TestBeginSeesCommitsFinalizedPastAFlush pins the false-conflict fix: a
// transaction that begins while an older commit is still flushing hides
// only that commit's stamp block. A newer commit that finalized first —
// typically the beginning transaction's own previous one — stays visible
// and does not conflict; the flushing one conflicts if it was read.
func TestBeginSeesCommitsFinalizedPastAFlush(t *testing.T) {
	v := NewValidator(nil) // private counter: timestamps are 1, 2, 3, ...
	ctx := sim.NewCtx()

	slow := v.Begin(ctx) // 1
	slow.RecordWrite("T", "slow")
	if err := v.Validate(ctx, slow, func(next func() int64) int { next(); return 1 }); err != nil {
		t.Fatal(err) // watermark 2, cell stamp 3; its flush stays in flight
	}
	mine := v.Begin(ctx) // 4
	mine.RecordWrite("T", "mine")
	var mineStamp int64
	if err := v.Validate(ctx, mine, func(next func() int64) int { mineStamp = next(); return 1 }); err != nil {
		t.Fatal(err) // watermark 5, cell stamp 6
	}
	v.Finalize(ctx, mine)

	next := v.Begin(ctx) // 7: slow is still flushing
	excluded := next.ReadOpts().Excluded
	if excluded(mineStamp) {
		t.Fatalf("own finalized commit (stamp %d) hidden from the next transaction", mineStamp)
	}
	if !excluded(3) {
		t.Fatal("a commit still flushing at begin is visible: readers could see half of it")
	}
	next.rs.AddPoint("T", "mine")
	next.RecordWrite("T", "mine")
	if err := v.Validate(ctx, next, nil); err != nil {
		t.Fatalf("read-modify-write of a row committed before begin: %v", err)
	}
	v.Finalize(ctx, next)

	stale := v.Begin(ctx) // slow is still flushing
	stale.rs.AddPoint("T", "slow")
	v.Finalize(ctx, slow)
	if err := v.Validate(ctx, stale, nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("validate = %v, want ErrConflict: read hid the flushing commit's write", err)
	}
}

// TestEscalatedTxnCannotLoseValidation pins the progress guarantee: while an
// escalated transaction runs, a concurrent transaction that writes what it
// read cannot validate first — its validation waits — so the escalated one
// commits, and the other is then checked against it.
func TestEscalatedTxnCannotLoseValidation(t *testing.T) {
	v := NewValidator(nil)
	ctx := sim.NewCtx()
	rival := v.Begin(ctx)
	rival.rs.AddPoint("T", "hot")
	rival.RecordWrite("T", "hot")

	esc := v.BeginEscalated(ctx)
	esc.rs.AddPoint("T", "hot")
	esc.RecordWrite("T", "hot")
	rivalDone := make(chan error, 1)
	go func() { rivalDone <- v.Validate(ctx, rival, nil) }()
	select {
	case err := <-rivalDone:
		t.Fatalf("rival validated (%v) while an escalated transaction held the lock", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := v.Validate(ctx, esc, nil); err != nil {
		t.Fatalf("escalated transaction lost validation: %v", err)
	}
	v.Finalize(ctx, esc)
	if err := <-rivalDone; !errors.Is(err, ErrConflict) {
		t.Fatalf("rival validate = %v, want ErrConflict against the escalated commit", err)
	}
	if st := v.Stats(); st.Escalations != 1 || st.Conflicts != 1 {
		t.Fatalf("stats %+v, want 1 escalation and 1 conflict", st)
	}

	// The lock is released: a fresh transaction validates without waiting,
	// and an aborted escalation releases it too.
	v.Abort(ctx, v.BeginEscalated(ctx))
	free := v.Begin(ctx)
	free.RecordWrite("T", "other")
	if err := v.Validate(ctx, free, nil); err != nil {
		t.Fatal(err)
	}
	v.Finalize(ctx, free)
}

// TestRangeContains covers the read-set range matcher directly.
func TestRangeContains(t *testing.T) {
	cases := []struct {
		r    Range
		key  string
		want bool
	}{
		{Range{Table: "T", Prefix: "ab"}, "abc", true},
		{Range{Table: "T", Prefix: "ab"}, "b", false},
		{Range{Table: "T", Start: "b", Stop: "d"}, "c", true},
		{Range{Table: "T", Start: "b", Stop: "d"}, "d", false},
		{Range{Table: "T", Start: "b", Stop: "d"}, "a", false},
		{Range{Table: "T"}, "anything", true}, // full scan
		{Range{Table: "T", Start: "b"}, "zz", true},
	}
	for _, c := range cases {
		if got := c.r.contains(c.key); got != c.want {
			t.Errorf("%+v contains %q = %v, want %v", c.r, c.key, got, c.want)
		}
	}
}
