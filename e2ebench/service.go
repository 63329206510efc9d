package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/client"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/tpch"
)

// serviceClients is the number of client connections of service-mixed:
// one per CPU of the reference machine.
const serviceClients = 2

// refreshTable is the table the COPY writes of service-mixed refresh.
const refreshTable = "customer"

// serviceOp is one operation of a service-mixed round.
type serviceOp struct {
	name     string
	sql      string // empty for the COPY refresh
	prepared bool
}

// serviceOps draws the round of service-mixed from seed: short, selective
// reads, plain and prepared, and one COPY refresh of the customer table
// with the rows it already holds, so that no answer depends on how the
// connections interleave. The seed picks the keys of the point lookups;
// the filters of the other reads are fixed, so that the work of a round
// does not depend on it.
func serviceOps(seed int64, in *tpchInput) []serviceOp {
	rng := rand.New(rand.NewSource(subSeed(seed, 2000)))
	nCust, nOrd := int64(in.det["customer"].Len()), int64(in.det["orders"].Len())
	return []serviceOp{
		{name: "point-customer", sql: fmt.Sprintf(
			"SELECT c_custkey, c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = %d", rng.Int63n(nCust))},
		{name: "point-orders", sql: fmt.Sprintf(
			"SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", rng.Int63n(nOrd))},
		{name: "topk-orders", sql: "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_orderdate < 1200 ORDER BY o_totalprice DESC LIMIT 10"},
		{name: "PB1", sql: tpch.Queries["PB1"]},
		{name: "group-segment", sql: "SELECT c_mktsegment, count(*) AS n, sum(c_acctbal) AS bal FROM customer GROUP BY c_mktsegment"},
		{name: "copy-customer"},
		{name: "group-region", sql: "SELECT n_regionkey, count(*) AS n FROM nation GROUP BY n_regionkey"},
		{name: "prep-point-customer", prepared: true, sql: fmt.Sprintf(
			"SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = %d", rng.Int63n(nCust))},
		{name: "prep-group-status", prepared: true,
			sql: "SELECT o_orderstatus, count(*) AS n, max(o_totalprice) AS top FROM orders WHERE o_orderdate < 200 GROUP BY o_orderstatus"},
	}
}

// serviceEnv is a database served by audbd with the benchmark's client
// connections and their prepared statements.
type serviceEnv struct {
	db    *audb.Database
	srv   *loopbackServer
	conns []*client.Conn
	stmts []map[string]*client.Stmt
}

func (e *serviceEnv) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.stop()
	}
}

// runService runs service-mixed: an in-process audbd on loopback and two
// client connections in a closed loop, each running whole rounds of
// serviceOps starting at a different operation.
func runService(ctx context.Context, o options) (*report, error) {
	in := genTPCH(o.seed, false)
	ops := serviceOps(o.seed, in)

	set, err := repeatSetup(func(ing *ingestMeter, sp *setupSpans) (_ *serviceEnv, err error) {
		e := &serviceEnv{db: loadTPCH(in, ing, sp)}
		defer func() {
			if err != nil {
				e.close()
			}
		}()
		if e.srv, err = startServer(e.db); err != nil {
			return nil, err
		}
		for c := 0; c < serviceClients; c++ {
			conn, err := client.Dial(e.srv.addr)
			if err != nil {
				return nil, err
			}
			e.conns = append(e.conns, conn)
			stmts := map[string]*client.Stmt{}
			for _, op := range ops {
				if op.prepared {
					if stmts[op.name], err = conn.Prepare(ctx, op.sql); err != nil {
						return nil, fmt.Errorf("prepare %s: %w", op.name, err)
					}
				}
			}
			e.stmts = append(e.stmts, stmts)
		}
		return e, nil
	}, (*serviceEnv).close)
	if err != nil {
		return nil, err
	}
	env := set.env
	defer env.close()

	// The in-process answers, checked, are the references every remote
	// answer must reproduce bit for bit.
	var reads []namedQuery
	for _, op := range ops {
		if op.sql != "" {
			reads = append(reads, namedQuery{op.name, op.sql})
		}
	}
	rep := &report{correct: true}
	refs, certainRows := checkReferences(ctx, env.db, reads, rep, func(q namedQuery, res *core.Relation) error {
		return checkServiceAnswer(ctx, in, q.name, q.sql, res)
	})
	rows, err := tableRows(env.db, refreshTable)
	if err != nil {
		return nil, err
	}
	before, err := tableAnswer(ctx, env.db)
	if err != nil {
		return nil, err
	}

	writes := make([]ingestMeter, serviceClients)
	round := func(c int, rec *recorder) {
		for i := range ops {
			op := ops[(i+c*len(ops)/serviceClients)%len(ops)]
			t := time.Now()
			var err error
			var res *audb.Result
			switch {
			case op.sql == "":
				err = bulkLoad(ctx, env.conns[c], refreshTable, rows, env.db, &writes[c])
				writes[c].finish()
			case op.prepared:
				res, err = env.stmts[c][op.name].Exec(ctx)
			default:
				res, err = env.conns[c].Query(ctx, op.sql)
			}
			d := time.Since(t)
			if err == nil && res != nil {
				err = refs[op.name].verify(res)
			}
			rec.record(op.name, d, err)
		}
	}
	// Warm-up: one untimed round per connection.
	for c := 0; c < serviceClients; c++ {
		round(c, newRecorder())
	}
	clear(writes)

	if o.trace {
		loop := closedLoop(o.seconds/2, serviceClients, round)
		loop.rec.addTo(rep)
		loop.setRuntime(rep)
		// In-process medians of the same reads, for client.overhead_ms.
		inproc := newRecorder()
		for i := 0; i < remoteReps; i++ {
			for _, q := range reads {
				t := time.Now()
				res, err := env.db.QueryContext(ctx, q.sql)
				d := time.Since(t)
				if err == nil {
					err = refs[q.name].verify(res)
				}
				inproc.record(q.name, d, err)
			}
		}
		inproc.addTo(rep)
		return rep, traceLayers(ctx, rep, &layerEnv{
			db: env.db, queries: reads, refs: refs, inproc: inproc.medians(), addr: env.srv.addr,
			copyTable: refreshTable, copyRows: rows, spans: set.spans, seconds: o.seconds / 2,
		})
	}

	loop := closedLoop(o.seconds, serviceClients, round)
	// The refreshed table must hold what it held before the writes.
	t := time.Now()
	after, err := tableAnswer(ctx, env.db)
	if err == nil {
		if err = checkSame(after, before); err != nil {
			err = &checkError{fmt.Errorf("refreshed %s: %w", refreshTable, err)}
		}
	}
	loop.rec.record("verify-refresh", time.Since(t), err)
	delete(loop.rec.lat, "verify-refresh")
	loop.rec.addTo(rep)
	loop.setEndToEnd(rep)
	for _, w := range writes {
		set.ingest.rates = append(set.ingest.rates, w.rates...)
	}
	rep.set("setup_s", set.seconds, "s")
	rep.set("ingest_rows_per_s", set.ingest.rate(), "rows/s")
	rep.set("heap_mb", set.heap/1e6, "MB")
	rep.set("certain_rows", float64(certainRows), "rows")
	return rep, nil
}

// tableAnswer is the answer of reading back the whole refreshed table.
func tableAnswer(ctx context.Context, db *audb.Database) (answer, error) {
	res, err := db.QueryContext(ctx, "SELECT * FROM "+refreshTable)
	if err != nil {
		return answer{}, err
	}
	return summarize(res), nil
}

// checkServiceAnswer runs every check that applies to one in-process
// answer of a service-mixed read.
func checkServiceAnswer(ctx context.Context, in *tpchInput, name, sql string, res *core.Relation) error {
	if res.Len() == 0 {
		return errors.New("empty answer: every read is drawn to return a row")
	}
	if err := checkSGW(ctx, res, sql, in.det); err != nil {
		return err
	}
	if err := checkCertain(res); err != nil {
		return err
	}
	if name == "PB1" {
		return checkPB1(res, in.det)
	}
	return nil
}
