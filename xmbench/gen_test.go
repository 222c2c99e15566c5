package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// inputsOf serializes everything a workload hands the program: tenant
// data, warm-up and ladder statements, and the scheduled requests.
func inputsOf(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	w := workloads[name](seed)
	data, err := json.Marshal(map[string]any{
		"tenants":  w.tenants,
		"warm":     w.warm,
		"ladder":   w.ladder,
		"schedule": w.schedule(2 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSeededInputs(t *testing.T) {
	for name := range workloads {
		a, b := inputsOf(t, name, 7), inputsOf(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two generations", name)
		}
		if c := inputsOf(t, name, 8); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// Sizes are fixed; only values move with the seed.
func TestSizesIndependentOfSeed(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		in, sh := genShop(seed, "t")
		if len(sh.orders) != shopOrders || len(in.Tables[0].Rows) != shopOrders || len(in.Tables[1].Rows) != shopUsers {
			t.Errorf("seed %d: shop sizes %d/%d/%d", seed, len(sh.orders), len(in.Tables[0].Rows), len(in.Tables[1].Rows))
		}
		for _, g := range genGrid(seed, "t", gridScale) {
			if len(g.Rows) != gridScale*gridScale {
				t.Errorf("seed %d: %s has %d rows", seed, g.Name, len(g.Rows))
			}
		}
		for _, e := range genTriangle(seed) {
			if len(e.Rows) != graphEdges {
				t.Errorf("seed %d: %s has %d rows", seed, e.Name, len(e.Rows))
			}
		}
	}
}

// The oracle's derivations: a selection plus projection, a grouped count,
// and a LIMIT answer.
func TestOracleChecks(t *testing.T) {
	in, sh := genShop(3, "t")
	or, err := newOracle([]tenantInput{in})
	if err != nil {
		t.Fatal(err)
	}
	r := newRand(3, "test")
	for kind := 0; kind < lookupKinds; kind++ {
		s := lookup("t", kind, sh, r)
		e, err := or.expect(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.set) == 0 {
			t.Errorf("%s: empty oracle answer", s.Text)
		}
	}
	e, err := or.expect(limitProbe("t", 3))
	if err != nil {
		t.Fatal(err)
	}
	// SELECT * answers are rows of the base join itself.
	res, err := or.base("t", limitProbe("t", 3).Base)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for i := 0; i < 3; i++ {
		rows = append(rows, res.Row(i))
	}
	if _, err := e.check(e.cols, rows, false, false); err != nil {
		t.Errorf("3 oracle rows for LIMIT 3: %v", err)
	}
	if _, err := e.check(e.cols, rows[:2], false, false); err == nil {
		t.Error("2 rows for LIMIT 3 not flagged cancelled passed")
	}
	if _, err := e.check(e.cols, rows[:2], true, false); err != nil {
		t.Errorf("cancelled subset: %v", err)
	}
	if _, err := e.check(nil, nil, true, false); err != nil {
		t.Errorf("empty cancelled answer without columns: %v", err)
	}
	if _, err := e.check(nil, nil, false, false); err == nil {
		t.Error("empty answer not flagged cancelled passed")
	}
	if _, err := e.check(e.cols, [][]string{rows[0], rows[1], rows[0]}, false, false); err == nil {
		t.Error("duplicate rows passed on /query")
	}
	if v, err := e.check(e.cols, [][]string{rows[0], rows[1], rows[2], rows[0]}, false, true); err != nil || v.dups != 1 {
		t.Errorf("stream duplicates: %+v, %v", v, err)
	}
	bad := append([]string(nil), rows[0]...)
	bad[0] = "no-such-order"
	if _, err := e.check(e.cols, [][]string{bad}, true, false); err == nil {
		t.Error("a row outside the oracle passed")
	}
}
