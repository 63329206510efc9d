package main

import (
	"context"
	"testing"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/tpch"
	"github.com/audb/audb/internal/types"
)

// testScale keeps the inputs of the tests small.
const testScale = 0.05

// answerOf runs one evaluation query over a freshly loaded input.
func answerOf(t *testing.T, in *tpchInput, name string) *core.Relation {
	t.Helper()
	var ing ingestMeter
	res, err := loadTPCH(in, &ing, &setupSpans{}).QueryContext(context.Background(), tpch.Queries[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Len() == 0 {
		t.Fatalf("%s: empty answer at test scale", name)
	}
	return res.Clone()
}

// shiftSG moves the selected guess of the first numeric attribute of row
// i up by one, widening the upper bound so the row stays well-formed.
func shiftSG(r *core.Relation, i int) *core.Relation {
	out := r.Clone()
	vals := out.Tuples[i].Vals
	for c, v := range vals {
		if v.SG.IsNumeric() {
			sg := types.Float(v.SG.AsFloat() + 1)
			vals[c] = rangeval.New(v.Lo, sg, types.Float(max(v.Hi.AsFloat(), sg.AsFloat())))
			return out
		}
	}
	panic("no numeric attribute")
}

// dropRow removes row i.
func dropRow(r *core.Relation, i int) *core.Relation {
	out := r.Clone()
	out.Tuples = append(out.Tuples[:i], out.Tuples[i+1:]...)
	return out
}

// narrowBounds collapses every attribute range and multiplicity of r onto
// its selected guess.
func narrowBounds(r *core.Relation) *core.Relation {
	out := r.Clone()
	for i := range out.Tuples {
		t := &out.Tuples[i]
		for c, v := range t.Vals {
			t.Vals[c] = rangeval.Certain(v.SG)
		}
		t.M = audb.CertainMult(t.M.SG)
	}
	return out
}

func TestChecksAcceptEngineAnswers(t *testing.T) {
	ctx := context.Background()
	for _, uncertain := range []bool{false, true} {
		in := genTPCHScale(testScale, 3, uncertain)
		var worlds []bag.DB
		if uncertain {
			worlds = append(worlds, in.sampleWorld(0))
		}
		for _, q := range []string{"PB1", "PB2", "Q1", "Q3", "Q10"} {
			if err := checkTPCHAnswer(ctx, in, q, answerOf(t, in, q), worlds); err != nil {
				t.Errorf("uncertain=%v %s: %v", uncertain, q, err)
			}
		}
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	ctx := context.Background()
	in := genTPCHScale(testScale, 3, false)
	pb1, q1 := answerOf(t, in, "PB1"), answerOf(t, in, "Q1")
	wrong := map[string]map[string]*core.Relation{
		"shifted SG value": {"PB1": shiftSG(pb1, 0), "Q1": shiftSG(q1, 0)},
		"dropped row":      {"PB1": dropRow(pb1, 0), "Q1": dropRow(q1, 0)},
	}
	for kind, answers := range wrong {
		for q, res := range answers {
			sql := tpch.Queries[q]
			if checkSGW(ctx, res, sql, in.det) == nil {
				t.Errorf("%s %s: SG check passed", kind, q)
			}
			check := checkPB1
			if q == "Q1" {
				check = checkQ1
			}
			if check(res, in.det) == nil {
				t.Errorf("%s %s: plain-loop check passed", kind, q)
			}
			orig := pb1
			if q == "Q1" {
				orig = q1
			}
			if checkSame(summarize(res), summarize(orig)) == nil {
				t.Errorf("%s %s: bit-identity check passed", kind, q)
			}
			// A shifted SG value with a widened bound still bounds the
			// world; a dropped row does not.
			if kind == "dropped row" && checkBoundsWorld(ctx, res, sql, in.det) == nil {
				t.Errorf("%s %s: bounds check passed", kind, q)
			}
		}
	}

	// A widened bound on a certain input is not certain.
	wide := pb1.Clone()
	v := wide.Tuples[0].Vals[2]
	wide.Tuples[0].Vals[2] = rangeval.New(types.Float(v.Lo.AsFloat()-1), v.SG, v.Hi)
	if checkCertain(wide) == nil {
		t.Error("certainty check passed a widened bound")
	}

	// Narrowed bounds no longer cover a possible world that differs from
	// the selected-guess world.
	uin := genTPCHScale(testScale, 3, true)
	for _, q := range []string{"PB1", "Q10"} {
		res, sql := answerOf(t, uin, q), tpch.Queries[q]
		found := false
		for k := 0; k < 16 && !found; k++ {
			w := uin.sampleWorld(k)
			if checkSGW(ctx, res, sql, w) == nil {
				continue // this world's answer equals the SG answer
			}
			found = true
			if err := checkBoundsWorld(ctx, res, sql, w); err != nil {
				t.Fatalf("%s: engine answer fails the bounds check: %v", q, err)
			}
			if checkBoundsWorld(ctx, narrowBounds(res), sql, w) == nil {
				t.Errorf("%s: bounds check passed narrowed bounds", q)
			}
		}
		if !found {
			t.Errorf("%s: no sampled world differs from the SG world", q)
		}
	}
}
