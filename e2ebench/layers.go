package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/client"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/obs"
	"github.com/audb/audb/internal/server"
	"github.com/audb/audb/internal/stats"
	"github.com/audb/audb/internal/wire"
)

// Repetitions of the per-query probes of the traced mode; each figure is
// the median.
const (
	probeReps  = 5
	remoteReps = 3
	copyReps   = 3
)

// spanMetrics are the per-layer metrics read from the span tree
// Database.Trace returns, summed over one pass of the traced query set.
var spanMetrics = []struct{ name, unit string }{
	{"sql.parse_ms", "ms"}, {"opt.rules_ms", "ms"}, {"opt.cost_ms", "ms"},
	{"phys.lower_ms", "ms"}, {"phys.exec_ms", "ms"},
	{"phys.scan_ms", "ms"}, {"phys.select_ms", "ms"}, {"phys.project_ms", "ms"},
	{"phys.agg_ms", "ms"}, {"phys.join_ms", "ms"}, {"phys.topk_ms", "ms"},
	{"phys.exchange_ms", "ms"},
	{"phys.join_rows_out", "rows"}, {"phys.agg_groups", "rows"},
}

// layerEnv is what the traced mode measures a workload's layers on.
type layerEnv struct {
	db      *audb.Database
	queries []namedQuery // the distinct statements of the workload
	refs    map[string]*reference
	// inproc is the untraced in-process median latency of every query,
	// in milliseconds.
	inproc map[string]float64
	addr   string // an audbd server over db
	// copyTable is refreshed through client.Bulk with copyRows, the rows
	// it already holds.
	copyTable string
	copyRows  []core.Tuple
	spans     []*setupSpans // one per set-up
	seconds   time.Duration // length of the traced phase
}

// traceTPCH is the traced mode of the TPC-H workloads: half the run is an
// untraced closed loop (runtime figures, in-process medians), the other
// half traces every query with Database.Trace; then the wire, client and
// storage layers are probed on the same queries.
func traceTPCH(ctx context.Context, o options, rep *report, db *audb.Database, queries []namedQuery,
	refs map[string]*reference, round func(int, *recorder), spans []*setupSpans) error {
	loop := closedLoop(o.seconds/2, 1, round)
	loop.rec.addTo(rep)
	loop.setRuntime(rep)
	srv, err := startServer(db)
	if err != nil {
		return err
	}
	defer srv.stop()
	rows, err := tableRows(db, "customer")
	if err != nil {
		return err
	}
	return traceLayers(ctx, rep, &layerEnv{
		db: db, queries: queries, refs: refs, inproc: loop.rec.medians(), addr: srv.addr,
		copyTable: "customer", copyRows: rows, spans: spans, seconds: o.seconds / 2,
	})
}

// traceLayers measures every per-layer metric on env and adds it to rep.
func traceLayers(ctx context.Context, rep *report, env *layerEnv) error {
	// Traced phase: Database.Trace on every query, in whole rounds.
	samples := map[string][]map[string]float64{}
	qerr := map[string]float64{}
	loop := closedLoop(env.seconds, 1, func(_ int, rec *recorder) {
		for _, q := range env.queries {
			t := time.Now()
			tr, err := env.db.Trace(ctx, q.sql)
			d := time.Since(t)
			if err == nil {
				err = env.refs[q.name].verify(tr.Result)
			}
			rec.record(q.name, d, err)
			if err == nil {
				s, qe := readSpans(tr.Root)
				samples[q.name] = append(samples[q.name], s)
				qerr[q.name] = qe
			}
		}
	})
	loop.rec.addTo(rep)
	rep.set("trace.overhead_ms", geomean(loop.rec.medians())-geomean(env.inproc), "ms")
	for _, m := range spanMetrics {
		sum := 0.0
		for _, q := range env.queries {
			vals := make([]float64, 0, len(samples[q.name]))
			for _, s := range samples[q.name] {
				vals = append(vals, s[m.name])
			}
			sum += median(vals)
		}
		rep.set(m.name, sum, m.unit)
	}
	rep.set("opt.est_qerror", geomean(qerr), "ratio")

	if err := traceColumnar(ctx, rep, env); err != nil {
		return err
	}
	if err := traceWire(ctx, rep, env); err != nil {
		return err
	}
	if err := traceClient(ctx, rep, env); err != nil {
		return err
	}
	traceStorage(rep, env)
	return nil
}

// readSpans turns one query's span tree into per-layer figures and the
// q-error of the cost model's root estimate.
func readSpans(root *obs.Span) (map[string]float64, float64) {
	out := map[string]float64{}
	for _, c := range root.Children {
		switch c.Name {
		case "parse":
			out["sql.parse_ms"] += msOf(c.Dur)
		case "optimize":
			out["opt.rules_ms"] += msOf(c.Dur)
		case "cost":
			out["opt.cost_ms"] += msOf(c.Dur)
		case "lower":
			out["phys.lower_ms"] += msOf(c.Dur)
		case "execute":
			out["phys.exec_ms"] += msOf(c.Dur)
			for _, op := range c.Children {
				walkOps(op, out)
			}
		}
	}
	qe := 1.0
	for _, c := range root.Children {
		if c.Name != "cost" {
			continue
		}
		est, ok1 := spanInt(c, "est_rows")
		act, ok2 := spanInt(root, "rows")
		if ok1 && ok2 {
			e, a := math.Max(float64(est), 1), math.Max(float64(act), 1)
			qe = math.Max(e/a, a/e)
		}
	}
	return out, qe
}

// walkOps adds the self time of every physical operator span (its time
// less its inputs') to the figure of its kind, and the rows joins and
// aggregations emit.
func walkOps(s *obs.Span, out map[string]float64) {
	self := s.Dur
	for _, c := range s.Children {
		self -= c.Dur
		walkOps(c, out)
	}
	kind := opKind(s)
	out["phys."+kind+"_ms"] += msOf(max(self, 0))
	rows, _ := spanInt(s, "rows")
	switch kind {
	case "join":
		out["phys.join_rows_out"] += float64(rows)
	case "agg":
		out["phys.agg_groups"] += float64(rows)
	}
}

// opKind classifies an operator span by its strategy and logical operator.
// A streaming chain the exchange runs in parallel has no spans of its own:
// its time is the exchange's. No workload runs the "other" operators
// (sort, limit, union, difference, distinct), so they are not reported.
func opKind(s *obs.Span) string {
	strategy := spanAttr(s, "strategy")
	switch {
	case strings.HasPrefix(strategy, "exchange"):
		return "exchange"
	case strategy == "top-k":
		return "topk"
	case strings.HasPrefix(s.Name, "Scan"):
		return "scan"
	case strings.HasPrefix(s.Name, "Select"):
		return "select"
	case strings.HasPrefix(s.Name, "Project"):
		return "project"
	case strings.HasPrefix(s.Name, "Join"), strings.HasPrefix(s.Name, "CrossProduct"):
		return "join"
	case strings.HasPrefix(s.Name, "Agg"):
		return "agg"
	}
	return "other"
}

func spanAttr(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func spanInt(s *obs.Span, key string) (int64, bool) {
	v, err := strconv.ParseInt(spanAttr(s, key), 10, 64)
	return v, err == nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceColumnar reports the share of emitted batches that were columnar,
// from one ExplainAnalyze of every query.
func traceColumnar(ctx context.Context, rep *report, env *layerEnv) error {
	var col, all int64
	var walk func(o *metrics.OpStats)
	walk = func(o *metrics.OpStats) {
		col += o.ColBatches
		all += o.Batches
		for _, c := range o.Children {
			walk(c)
		}
	}
	for _, q := range env.queries {
		exp, err := env.db.ExplainAnalyze(ctx, q.sql)
		if err != nil {
			return fmt.Errorf("explain analyze %s: %w", q.name, err)
		}
		if exp.Stats != nil && exp.Stats.Root != nil {
			walk(exp.Stats.Root)
		}
	}
	rep.set("phys.col_batch_share", float64(col)/float64(max(all, 1)), "ratio")
	return nil
}

// traceWire times encoding every answer into a result frame with
// wire.Writer and decoding it with wire.Reader, on a buffer.
func traceWire(ctx context.Context, rep *report, env *layerEnv) error {
	var enc, dec, size float64
	for _, q := range env.queries {
		res, err := env.db.QueryContext(ctx, q.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		var encs, decs []float64
		var buf bytes.Buffer
		for i := 0; i < probeReps; i++ {
			buf.Reset()
			t := time.Now()
			if err := wire.NewWriter(&buf).Write(wire.Result{ID: 1, Rel: res}); err != nil {
				return fmt.Errorf("encode %s: %w", q.name, err)
			}
			encs = append(encs, msOf(time.Since(t)))
			t = time.Now()
			m, err := wire.NewReader(bytes.NewReader(buf.Bytes())).Read()
			decs = append(decs, msOf(time.Since(t)))
			if err != nil {
				return fmt.Errorf("decode %s: %w", q.name, err)
			}
			if r, ok := m.(wire.Result); !ok || summarize(r.Rel) != summarize(res) {
				return fmt.Errorf("%s: decoded result frame differs from the encoded answer", q.name)
			}
		}
		enc += median(encs)
		dec += median(decs)
		size += float64(buf.Len())
	}
	rep.set("wire.encode_ms", enc, "ms")
	rep.set("wire.decode_ms", dec, "ms")
	rep.set("wire.result_bytes", size, "bytes")
	return nil
}

// traceClient times every query through one client connection to the
// server, and the COPY refresh of env.copyTable through client.Bulk. Each
// remote answer must be bit-identical to the in-process one.
func traceClient(ctx context.Context, rep *report, env *layerEnv) error {
	conn, err := client.Dial(env.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rec := newRecorder()
	var rt, over float64
	for _, q := range env.queries {
		var ts []float64
		for i := 0; i < remoteReps; i++ {
			t := time.Now()
			res, err := conn.Query(ctx, q.sql)
			d := time.Since(t)
			ts = append(ts, msOf(d))
			if err == nil {
				err = env.refs[q.name].verify(res)
			}
			rec.record("remote "+q.name, d, err)
		}
		rt += median(ts)
		over += median(ts) - env.inproc[q.name]
	}
	var copies []float64
	for i := 0; i < copyReps; i++ {
		var ing ingestMeter
		err := bulkLoad(ctx, conn, env.copyTable, env.copyRows, env.db, &ing)
		rec.record("copy "+env.copyTable, ing.dur, err)
		copies = append(copies, msOf(ing.dur))
	}
	rec.addTo(rep)
	rep.set("client.roundtrip_ms", rt, "ms")
	rep.set("client.overhead_ms", over, "ms")
	rep.set("client.copy_ms", median(copies), "ms")
	return nil
}

// traceStorage reports the set-up spans (medians over the set-ups), the
// time the stats layer takes to collect every table's statistics, and the
// share of stored columns kept flat.
func traceStorage(rep *report, env *layerEnv) {
	var tr, load, com []float64
	for _, s := range env.spans {
		tr = append(tr, msOf(s.translate))
		load = append(load, msOf(s.load))
		com = append(com, msOf(s.commit))
	}
	rep.set("translate.xdb_ms", median(tr), "ms")
	rep.set("core.load_ms", median(load), "ms")
	rep.set("core.commit_ms", median(com), "ms")

	var analyze []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		for _, name := range env.db.Tables() {
			rel, err := env.db.Relation(name)
			if err == nil {
				stats.Collect(name, rel)
			}
		}
		analyze = append(analyze, msOf(time.Since(t)))
	}
	rep.set("stats.analyze_ms", median(analyze), "ms")

	flat, cols := 0, 0
	for _, name := range env.db.Tables() {
		if rel, err := env.db.Relation(name); err == nil {
			_, f, _ := rel.StorageDetail()
			flat += f
			cols += rel.Schema.Arity()
		}
	}
	rep.set("core.flat_col_share", float64(flat)/float64(max(cols, 1)), "ratio")
}

// tableRows copies out the rows a table holds, for a COPY refresh.
func tableRows(db *audb.Database, name string) ([]core.Tuple, error) {
	rel, err := db.Relation(name)
	if err != nil {
		return nil, err
	}
	rows := make([]core.Tuple, 0, rel.Len())
	_ = rel.EachTuple(func(t core.Tuple) error {
		rows = append(rows, t.Clone())
		return nil
	})
	return rows, nil
}

// bulkLoad replaces table over conn with rows through client.Bulk and
// checks that the server registered every row.
func bulkLoad(ctx context.Context, conn *client.Conn, table string, rows []core.Tuple, db *audb.Database, ing *ingestMeter) error {
	rel, err := db.Relation(table)
	if err != nil {
		return err
	}
	t := time.Now()
	b := conn.Bulk(table, rel.Schema.Attrs...)
	for _, r := range rows {
		b.Add(r.Vals, r.M)
	}
	n, err := b.Close(ctx)
	ing.dur += time.Since(t)
	if err != nil {
		return fmt.Errorf("copy %s: %w", table, err)
	}
	ing.rows += int64(n)
	if n != uint64(len(rows)) {
		return &checkError{fmt.Errorf("copy %s registered %d rows, want %d", table, n, len(rows))}
	}
	return nil
}

// loopbackServer is an audbd server on a loopback port.
type loopbackServer struct {
	srv  *server.Server
	addr string
	done chan error
}

// startServer serves db on a fresh loopback port with the default server
// configuration.
func startServer(db *audb.Database) (*loopbackServer, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &loopbackServer{srv: server.New(db, server.Config{}), addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(lis) }()
	return s, nil
}

// stop shuts the server down and waits until Serve has returned.
func (s *loopbackServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain timeout force-closes; nothing to report
	<-s.done
}
