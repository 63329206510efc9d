package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/types"
)

// floatTol is the relative tolerance for float results computed apart
// from the engine: a sum over the same rows in another order may differ
// in its last bits.
const floatTol = 1e-9

// answer summarizes one query answer.
type answer struct {
	// digest is an order-sensitive FNV-1a hash of every bit of the answer
	// (schema, every bound of every attribute, every multiplicity), so two
	// answers with equal digests are bit-identical for all practical
	// purposes.
	digest  uint64
	rows    int
	certain int // rows with M.Lo > 0 whose attributes all have lb == ub
}

func summarize(res *core.Relation) answer {
	h := fnvHash(14695981039346656037)
	for _, a := range res.Schema.Attrs {
		h.str(a)
	}
	a := answer{rows: res.Len()}
	_ = res.EachTuple(func(t core.Tuple) error {
		sure := t.M.Lo > 0
		for _, v := range t.Vals {
			h.value(v.Lo)
			h.value(v.SG)
			h.value(v.Hi)
			sure = sure && types.Equal(v.Lo, v.Hi)
		}
		h.u64(uint64(t.M.Lo))
		h.u64(uint64(t.M.SG))
		h.u64(uint64(t.M.Hi))
		if sure {
			a.certain++
		}
		return nil
	})
	a.digest = uint64(h)
	return a
}

// fnvHash is a 64-bit FNV-1a hash fed field by field.
type fnvHash uint64

func (h *fnvHash) byte(b byte) { *h = (*h ^ fnvHash(b)) * 1099511628211 }

func (h *fnvHash) u64(x uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(x >> (8 * i)))
	}
}

func (h *fnvHash) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnvHash) value(v types.Value) {
	h.byte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindBool:
		if v.AsBool() {
			h.byte(1)
		} else {
			h.byte(0)
		}
	case types.KindInt:
		h.u64(uint64(v.AsInt()))
	case types.KindFloat:
		h.u64(math.Float64bits(v.AsFloat()))
	case types.KindString:
		h.str(v.AsString())
	}
}

// checkSGW checks that the selected-guess world of res equals the answer
// bag.Exec, the deterministic reference engine, gives for the query over
// the selected-guess world of the input.
func checkSGW(ctx context.Context, res *core.Relation, query string, sgw bag.DB) error {
	want, err := execBag(ctx, query, sgw)
	if err != nil {
		return err
	}
	if err := sameBag(res.SGW(), want); err != nil {
		return fmt.Errorf("SG world differs from bag.Exec: %w", err)
	}
	return nil
}

// checkBoundsWorld checks that res bounds the query's answer over one
// possible world of the input (core.Relation.BoundsWorld, a flow check).
// Float bounds are widened by floatTol first: the world's sums are added
// in another order than the engine's.
func checkBoundsWorld(ctx context.Context, res *core.Relation, query string, world bag.DB) error {
	want, err := execBag(ctx, query, world)
	if err != nil {
		return err
	}
	if !widenFloats(res).BoundsWorld(want) {
		return errors.New("answer does not bound the answer over a sampled possible world")
	}
	return nil
}

// widenFloats returns a copy of r whose float bounds are widened by
// floatTol.
func widenFloats(r *core.Relation) *core.Relation {
	out := r.Clone()
	for _, t := range out.Tuples {
		for i, v := range t.Vals {
			if v.Lo.Kind() == types.KindFloat {
				f := v.Lo.AsFloat()
				v.Lo = types.Float(f - floatTol*math.Max(1, math.Abs(f)))
			}
			if v.Hi.Kind() == types.KindFloat {
				f := v.Hi.AsFloat()
				v.Hi = types.Float(f + floatTol*math.Max(1, math.Abs(f)))
			}
			t.Vals[i] = v
		}
	}
	return out
}

// checkCertain checks that every row of res is certain.
func checkCertain(res *core.Relation) error {
	if a := summarize(res); a.certain != a.rows {
		return fmt.Errorf("%d of %d rows are not certain over a certain input", a.rows-a.certain, a.rows)
	}
	return nil
}

// checkSame checks that an answer is bit-identical to the checked
// reference answer of the same query (for a remote answer: the in-process
// one).
func checkSame(got, want answer) error {
	if got != want {
		return fmt.Errorf("answer differs from the reference answer (digest %016x, %d rows; want %016x, %d rows)",
			got.digest, got.rows, want.digest, want.rows)
	}
	return nil
}

func execBag(ctx context.Context, query string, db bag.DB) (*bag.Relation, error) {
	plan, err := sql.Compile(query, ra.CatalogMap(db.Schemas()))
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return bag.Exec(ctx, plan, db)
}

// sameBag compares two bags, floats to floatTol.
func sameBag(got, want *bag.Relation) error {
	g, w := got.Sorted(), want.Sorted()
	if len(g.Tuples) != len(w.Tuples) {
		return fmt.Errorf("%d distinct rows, want %d", len(g.Tuples), len(w.Tuples))
	}
	for i := range g.Tuples {
		if !closeTuple(g.Tuples[i], w.Tuples[i]) || g.Counts[i] != w.Counts[i] {
			return fmt.Errorf("row %v x%d, want %v x%d", g.Tuples[i], g.Counts[i], w.Tuples[i], w.Counts[i])
		}
	}
	return nil
}

func closeTuple(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func closeValue(a, b types.Value) bool {
	if a.Kind() == types.KindFloat || b.Kind() == types.KindFloat {
		if !a.IsNumeric() || !b.IsNumeric() {
			return false
		}
		return closeFloat(a.AsFloat(), b.AsFloat())
	}
	return types.Equal(a, b)
}

func closeFloat(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkPB1 recomputes PB1 (customers with c_acctbal > 4000) with a plain
// loop over the generated rows and compares it with the SG world of res.
func checkPB1(res *core.Relation, det bag.DB) error {
	cust := det["customer"]
	key, name, bal := col(cust, "c_custkey"), col(cust, "c_name"), col(cust, "c_acctbal")
	want := bag.New(res.Schema)
	for i, t := range cust.Tuples {
		if t[bal].AsFloat() > 4000 {
			want.Add(types.Tuple{t[key], t[name], t[bal]}, cust.Counts[i])
		}
	}
	if err := sameBag(res.SGW(), want); err != nil {
		return fmt.Errorf("PB1 differs from a plain loop over customer: %w", err)
	}
	return nil
}

// q1Group accumulates one TPC-H Q1 group.
type q1Group struct {
	qty, price, discPrice, charge, disc float64
	n                                   int64
}

// checkQ1 recomputes TPC-H Q1 with a plain loop over the generated
// lineitem rows and compares it with the SG world of res.
func checkQ1(res *core.Relation, det bag.DB) error {
	li := det["lineitem"]
	rf, ls, ship := col(li, "l_returnflag"), col(li, "l_linestatus"), col(li, "l_shipdate")
	qty, price, disc, tax := col(li, "l_quantity"), col(li, "l_extendedprice"), col(li, "l_discount"), col(li, "l_tax")
	groups := map[[2]string]*q1Group{}
	for i, t := range li.Tuples {
		if t[ship].AsInt() > 2300 {
			continue
		}
		k := [2]string{t[rf].AsString(), t[ls].AsString()}
		g := groups[k]
		if g == nil {
			g = &q1Group{}
			groups[k] = g
		}
		c := li.Counts[i]
		p, d := t[price].AsFloat(), t[disc].AsFloat()
		g.qty += t[qty].AsFloat() * float64(c)
		g.price += p * float64(c)
		g.discPrice += p * (1 - d) * float64(c)
		g.charge += p * (1 - d) * (1 + t[tax].AsFloat()) * float64(c)
		g.disc += d * float64(c)
		g.n += c
	}
	sgw := res.SGW()
	if len(sgw.Tuples) != len(groups) {
		return fmt.Errorf("Q1 has %d groups, a plain loop over lineitem gives %d", len(sgw.Tuples), len(groups))
	}
	idx := func(name string) int { return res.Schema.IndexOf(name) }
	for i, t := range sgw.Tuples {
		g := groups[[2]string{t[idx("l_returnflag")].AsString(), t[idx("l_linestatus")].AsString()}]
		if g == nil || sgw.Counts[i] != 1 {
			return fmt.Errorf("Q1 group %v x%d is not in the plain loop's answer", t, sgw.Counts[i])
		}
		n := float64(g.n)
		want := map[string]float64{
			"sum_qty": g.qty, "sum_base_price": g.price, "sum_disc_price": g.discPrice,
			"sum_charge": g.charge, "avg_qty": g.qty / n, "avg_price": g.price / n,
			"avg_disc": g.disc / n, "count_order": n,
		}
		for c, w := range want {
			j := idx(c)
			if j < 0 || !t[j].IsNumeric() || !closeFloat(t[j].AsFloat(), w) {
				return fmt.Errorf("Q1 group %v: %s differs from a plain loop over lineitem (want %v)", t, c, w)
			}
		}
	}
	return nil
}

func col(r *bag.Relation, name string) int { return r.Schema.IndexOf(name) }
