package main

import (
	"context"
	"fmt"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/tpch"
)

const (
	// boundsWorlds is how many possible worlds tpch-pdbench samples to
	// check that its answers bound them.
	boundsWorlds = 2
	// boundsMaxRows caps the answers the flow check of
	// core.Relation.BoundsWorld is run on: it adds one edge per pair of
	// answer rows, so PB2 and PB3 (about 10k rows) are left to the SG
	// check.
	boundsMaxRows = 1000
)

// namedQuery is one SQL statement of a workload.
type namedQuery struct {
	name, sql string
}

// reference is the checked answer of one query: the timed executions
// must reproduce it bit for bit.
type reference struct {
	ans answer
	err error // the reference execution failed or failed a check
}

// verify checks one timed answer against the reference.
func (r *reference) verify(res *core.Relation) error {
	if r.err != nil {
		return r.err
	}
	if err := checkSame(summarize(res), r.ans); err != nil {
		return &checkError{err}
	}
	return nil
}

// runTPCH runs tpch-certain (uncertain false) or tpch-pdbench: one
// in-process client runs the evaluation queries through
// Database.QueryContext in a closed loop, with the session defaults.
func runTPCH(ctx context.Context, o options, uncertain bool) (*report, error) {
	in := genTPCH(o.seed, uncertain)
	names := queryNames
	var sampled []bag.DB
	if uncertain {
		names = pdbenchQueryNames
		for k := 0; k < boundsWorlds; k++ {
			sampled = append(sampled, in.sampleWorld(k))
		}
	}
	queries := make([]namedQuery, len(names))
	for i, n := range names {
		queries[i] = namedQuery{n, tpch.Queries[n]}
	}

	set, err := repeatSetup(func(ing *ingestMeter, sp *setupSpans) (*audb.Database, error) {
		return loadTPCH(in, ing, sp), nil
	}, func(*audb.Database) {})
	if err != nil {
		return nil, err
	}
	db := set.env

	rep := &report{correct: true}
	refs, certainRows := checkReferences(ctx, db, queries, rep, func(q namedQuery, res *core.Relation) error {
		return checkTPCHAnswer(ctx, in, q.name, res, sampled)
	})
	sampled = nil // the sampled worlds are not needed past the checks

	round := func(_ int, rec *recorder) {
		for _, q := range queries {
			t := time.Now()
			res, err := db.QueryContext(ctx, q.sql)
			d := time.Since(t)
			if err == nil {
				err = refs[q.name].verify(res)
			}
			rec.record(q.name, d, err)
		}
	}
	if o.trace {
		return rep, traceTPCH(ctx, o, rep, db, queries, refs, round, set.spans)
	}
	loop := closedLoop(o.seconds, 1, round)
	loop.rec.addTo(rep)
	loop.setEndToEnd(rep)
	rep.set("setup_s", set.seconds, "s")
	rep.set("ingest_rows_per_s", set.ingest.rate(), "rows/s")
	rep.set("heap_mb", set.heap/1e6, "MB")
	rep.set("certain_rows", float64(certainRows), "rows")
	return rep, nil
}

// checkReferences runs every statement once in process and checks its
// answer; the checked answers are the references every timed execution
// must reproduce bit for bit. It adds one digest line per statement to rep
// and returns the references and the certain rows of the pass.
func checkReferences(ctx context.Context, db *audb.Database, queries []namedQuery, rep *report,
	check func(namedQuery, *core.Relation) error) (map[string]*reference, int) {
	refs := make(map[string]*reference, len(queries))
	certain := 0
	for _, q := range queries {
		ref := &reference{}
		refs[q.name] = ref
		res, err := db.QueryContext(ctx, q.sql)
		if err != nil {
			ref.err = err
			rep.lines = append(rep.lines, fmt.Sprintf("digest %s error: %v", q.name, err))
			continue
		}
		ref.ans = summarize(res)
		certain += ref.ans.certain
		rep.lines = append(rep.lines, fmt.Sprintf("digest %s %016x rows=%d certain=%d",
			q.name, ref.ans.digest, ref.ans.rows, ref.ans.certain))
		if err := check(q, res); err != nil {
			ref.err = &checkError{fmt.Errorf("%s: %w", q.name, err)}
		}
	}
	return refs, certain
}

// checkTPCHAnswer runs every check that applies to one TPC-H answer.
func checkTPCHAnswer(ctx context.Context, in *tpchInput, name string, res *core.Relation, sampled []bag.DB) error {
	q := tpch.Queries[name]
	if res.Len() == 0 {
		return fmt.Errorf("empty answer: the input scale is chosen so that every query returns a row")
	}
	if err := checkSGW(ctx, res, q, in.det); err != nil {
		return err
	}
	if in.xdb == nil {
		if err := checkCertain(res); err != nil {
			return err
		}
	}
	switch name {
	case "Q1":
		if err := checkQ1(res, in.det); err != nil {
			return err
		}
	case "PB1":
		if err := checkPB1(res, in.det); err != nil {
			return err
		}
	}
	if res.Len() <= boundsMaxRows {
		for _, w := range sampled {
			if err := checkBoundsWorld(ctx, res, q, w); err != nil {
				return err
			}
		}
	}
	return nil
}
