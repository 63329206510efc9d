package main

import (
	"math/rand"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/synth"
	"github.com/audb/audb/internal/tpch"
	"github.com/audb/audb/internal/worlds"
)

// The make-up of the inputs. README.md lists the resulting row counts.
const (
	// tpchScale is the internal/tpch scale factor of every workload:
	// 60k lineitem rows. It is the smallest scale at which Q7 returns a
	// row for practically every seed (it needs a FRANCE or GERMANY
	// supplier among 100).
	tpchScale = 1.0
	// pdbCellProb is the share of eligible cells made uncertain on
	// tpch-pdbench, from the 2-10% range of the paper's Figure 10.
	pdbCellProb = 0.02
	// pdbRangeFrac is the share of a column's domain the alternatives of
	// an uncertain cell span. The whole domain (1.0) makes the uncertain
	// join blow-up, and with it the cost of a pass, swing by a factor of
	// three between seeds.
	pdbRangeFrac = 0.02
	// pdbMaxAlts is PDBench's largest number of alternatives per block.
	pdbMaxAlts = 8
	// setupReps is how often a run builds the database from scratch and
	// measures it, after one unmeasured build; setup_s is the median.
	setupReps = 7
)

// queryNames are the paper's evaluation queries (internal/tpch), in the
// order a pass runs them.
var queryNames = []string{"PB1", "PB2", "PB3", "Q1", "Q3", "Q5", "Q7", "Q10"}

// pdbenchQueryNames leaves Q1 out of tpch-pdbench: over uncertain group-by
// values its float upper bounds differ in the last bits from one
// execution to the next (README.md, known faults), so its answer cannot
// be checked bit for bit.
var pdbenchQueryNames = []string{"PB1", "PB2", "PB3", "Q3", "Q5", "Q7", "Q10"}

// tpchInput is one generated TPC-H-shaped input.
type tpchInput struct {
	seed int64
	// det holds the generated rows. On tpch-pdbench it is the selected-
	// guess world of the injected input (the first alternative of every
	// block is the original row).
	det bag.DB
	// xdb is the block-independent x-database of tpch-pdbench; nil on a
	// certain input.
	xdb   worlds.XDB
	names []string // table names, sorted
}

// genTPCH draws the input of a TPC-H workload from seed. Generation is
// the benchmark's own work and is not part of any timing.
func genTPCH(seed int64, uncertain bool) *tpchInput {
	return genTPCHScale(tpchScale, seed, uncertain)
}

func genTPCHScale(scale float64, seed int64, uncertain bool) *tpchInput {
	det := tpch.Generate(tpch.Config{Scale: scale, Seed: seed})
	in := &tpchInput{seed: seed, det: det, names: det.Names()}
	if uncertain {
		in.xdb = injectPDBench(det, in.names, seed)
	}
	return in
}

// injectPDBench injects PDBench-style uncertainty table by table, in
// sorted order and with a seed of each table's own, so the input is a
// function of seed alone. (synth.Inject over a multi-table bag.DB draws
// one generator in map order, and tpch.InjectPDBench gives supplier,
// customer and lineitem the same seed; README.md records both.) Region
// and nation stay certain, as in PDBench.
func injectPDBench(det bag.DB, names []string, seed int64) worlds.XDB {
	out := worlds.XDB{}
	for i, name := range names {
		rel := det[name]
		if name == "region" || name == "nation" {
			x := worlds.NewXRelation(rel.Schema)
			for j, t := range rel.Tuples {
				for k := int64(0); k < rel.Counts[j]; k++ {
					x.AddCertain(t)
				}
			}
			out[name] = x
			continue
		}
		out[name] = synth.Inject(bag.DB{name: rel}, synth.InjectConfig{
			CellProb:  pdbCellProb,
			MaxAlts:   pdbMaxAlts,
			RangeFrac: pdbRangeFrac,
			Seed:      subSeed(seed, int64(i)),
		})[name]
	}
	return out
}

// sampleWorld draws possible world k of the x-database, table by table in
// sorted order (worlds.XDB.Sample walks its map in random order).
func (in *tpchInput) sampleWorld(k int) bag.DB {
	rng := rand.New(rand.NewSource(subSeed(in.seed, 1000+int64(k))))
	w := bag.DB{}
	for _, n := range in.names {
		w[n] = in.xdb[n].Sample(rng)
	}
	return w
}

// subSeed derives an independent generator seed for one part of an input.
func subSeed(seed, part int64) int64 { return seed*1_000_003 + part*7_919 + 1 }

// ingestMeter accumulates the rows committed through the ingest path and
// the time spent in those calls, batch by batch: one set-up, or one COPY.
type ingestMeter struct {
	rows  int64
	dur   time.Duration
	rates []float64 // rows per second of every finished batch
}

// finish closes the current batch.
func (m *ingestMeter) finish() {
	if m.dur > 0 {
		m.rates = append(m.rates, float64(m.rows)/m.dur.Seconds())
	}
	m.rows, m.dur = 0, 0
}

// rate is the median ingest rate of the finished batches.
func (m *ingestMeter) rate() float64 { return median(m.rates) }

// setupSpans are the benchmark's own spans around the calls a set-up makes
// into the translate and core layers.
type setupSpans struct {
	translate, load, commit time.Duration
}

// loadTPCH builds a fresh Database from the input through the public
// ingest path: Database.NewLoader/Add/Commit for every table, after
// FromXTable on an uncertain input. The load is one batch of ing.
func loadTPCH(in *tpchInput, ing *ingestMeter, sp *setupSpans) *audb.Database {
	db := audb.New()
	for _, name := range in.names {
		if in.xdb == nil {
			loadCertain(db, name, in.det[name], ing, sp)
			continue
		}
		t := time.Now()
		rel := audb.FromXTable(in.xdb[name])
		sp.translate += time.Since(t)
		t = time.Now()
		l := db.NewLoader(name, rel.Schema.Attrs...)
		_ = rel.EachTuple(func(tp core.Tuple) error {
			l.Add(tp.Vals, tp.M)
			return nil
		})
		commit(l, t, ing, sp)
	}
	ing.finish()
	return db
}

// loadCertain loads a deterministic table row by row as certain tuples.
func loadCertain(db *audb.Database, name string, rel *bag.Relation, ing *ingestMeter, sp *setupSpans) {
	t := time.Now()
	l := db.NewLoader(name, rel.Schema.Attrs...)
	row := make(audb.RangeRow, rel.Schema.Arity())
	for i, tp := range rel.Tuples {
		for c, v := range tp {
			row[c] = audb.CertainOf(v)
		}
		l.Add(row, audb.CertainMult(rel.Counts[i]))
	}
	commit(l, t, ing, sp)
}

// commit finishes a load that started at start, charging the Add loop to
// sp.load and the Commit to sp.commit.
func commit(l *audb.TableLoader, start time.Time, ing *ingestMeter, sp *setupSpans) {
	c := time.Now()
	rel := l.Commit()
	end := time.Now()
	ing.rows += int64(rel.Len())
	ing.dur += end.Sub(start)
	sp.load += c.Sub(start)
	sp.commit += end.Sub(c)
}
