package server

import (
	"errors"
	"fmt"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

// ErrTxnOpen reports BEGIN while a transaction is already open.
var ErrTxnOpen = errors.New("server: transaction already open")

// Session is one connection's transaction context. SystemSession, over a
// deployed synergy.System, is the implementation for all three concurrency
// modes; the interface lets a caller wrap it (e.g. to time each call).
//
// Outside an explicit transaction the session runs in autocommit: each
// write executes as its own transaction through the deployment's normal
// single-statement path, each read against its own snapshot. Begin opens an
// interactive transaction; Commit/Rollback close it. A statement error
// inside an open transaction rolls the whole transaction back (the engine's
// transaction objects require abort-on-error), mirroring MySQL's deadlock
// handling: the error surfaces to the client and the session is back in
// autocommit.
type Session interface {
	// QueryStream runs a SELECT as a streaming cursor — inside the open
	// transaction when there is one (reading the transaction's own
	// buffered writes), else against a fresh snapshot. Rows are pulled off
	// the region scanner as the caller iterates, so peak memory is one scan
	// chunk for streamable shapes. The caller must Close the cursor and
	// check its error — for autocommit snapshot reads under MVCC, Close is
	// what settles the wrapping transaction.
	QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error)
	// Exec runs a write statement — buffered into the open transaction when
	// there is one, else as its own autocommitted transaction.
	Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error
	// Begin opens an interactive transaction; ErrTxnOpen if one is open.
	Begin(ctx *sim.Ctx) error
	// Commit commits the open transaction (no-op without one).
	Commit(ctx *sim.Ctx) error
	// Rollback aborts the open transaction (no-op without one).
	Rollback(ctx *sim.Ctx) error
	// InTxn reports whether an interactive transaction is open.
	InTxn() bool
	// SetReads selects the session's freshness contract against
	// asynchronously maintained views.
	SetReads(mode synergy.ViewReadMode)
	// Close aborts any open transaction and releases the session's
	// resources; the connection teardown path calls it unconditionally.
	Close(ctx *sim.Ctx) error
}

// SystemSession drives a deployed synergy.System: queries run their
// view-based rewrite with the session's freshness contract, autocommit
// writes take the deployment's WAL-logged single-statement path, and
// interactive transactions run on synergy.Tx with a commit-time WAL record
// (hierarchical and OCC; MVCC deployments have no transaction layer and
// need no logging).
type SystemSession struct {
	sys   *synergy.System
	reads synergy.ViewReadMode
	tx    *synergy.Tx
	// stmts/params accumulate the open transaction's write statements for
	// the commit-time WAL record.
	stmts  []sqlparser.Statement
	params [][]schema.Value
}

// NewSystemSession opens a session on sys with its configured freshness
// default.
func NewSystemSession(sys *synergy.System) *SystemSession {
	return &SystemSession{sys: sys, reads: sys.DefaultReadMode()}
}

// SetReads selects the session's freshness contract.
func (s *SystemSession) SetReads(m synergy.ViewReadMode) { s.reads = m }

// InTxn reports whether an interactive transaction is open.
func (s *SystemSession) InTxn() bool { return s.tx != nil }

// Begin opens an interactive transaction.
func (s *SystemSession) Begin(ctx *sim.Ctx) error {
	if s.tx != nil {
		return ErrTxnOpen
	}
	s.tx = s.sys.BeginTx(ctx)
	return nil
}

// QueryStream runs a SELECT as a streaming cursor, inside the open
// transaction or against a fresh snapshot.
func (s *SystemSession) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	if s.tx != nil {
		return s.tx.QueryStreamWithReads(ctx, sel, params, s.reads)
	}
	return s.sys.QueryStreamWithReads(ctx, sel, params, s.reads)
}

// Exec runs a write statement. A statement error inside an open transaction
// aborts it (see Session).
func (s *SystemSession) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	if s.tx == nil {
		return s.sys.Exec(ctx, stmt, params)
	}
	if err := s.tx.Exec(ctx, stmt, params); err != nil {
		tx := s.tx
		s.clear()
		if aerr := tx.Abort(ctx); aerr != nil {
			return fmt.Errorf("%w (transaction rolled back; abort: %v)", err, aerr)
		}
		return fmt.Errorf("%w (transaction rolled back)", err)
	}
	s.stmts = append(s.stmts, stmt)
	s.params = append(s.params, params)
	return nil
}

// Commit commits the open transaction and, on success, WAL-logs it through
// the transaction layer as one committed group (LogCommitted).
func (s *SystemSession) Commit(ctx *sim.Ctx) error {
	if s.tx == nil {
		return nil
	}
	tx, stmts, params := s.tx, s.stmts, s.params
	s.clear()
	if err := tx.Commit(ctx); err != nil {
		return err
	}
	if s.sys.Txn != nil && len(stmts) > 0 {
		return s.sys.Txn.LogCommitted(ctx, stmts, params)
	}
	return nil
}

// Rollback aborts the open transaction.
func (s *SystemSession) Rollback(ctx *sim.Ctx) error {
	if s.tx == nil {
		return nil
	}
	tx := s.tx
	s.clear()
	return tx.Abort(ctx)
}

// Close aborts any open transaction.
func (s *SystemSession) Close(ctx *sim.Ctx) error { return s.Rollback(ctx) }

func (s *SystemSession) clear() {
	s.tx, s.stmts, s.params = nil, nil, nil
}
