package mmql_test

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	xmjoin "repro"
	"repro/internal/datagen"
	"repro/internal/mmql"
	"repro/internal/relational"
	"repro/internal/server"
	"repro/internal/xmldb"
)

// TestFinishOrderAndBaseline pins the one output order and the answer set
// of the Value-domain finish. Every statement — the demo warm set, the
// heavy grid projected and counted, and random multi-model statements
// (projections, aggregates, residual filters hitting and missing the
// dictionary) — must return identical rows in identical order serially
// and morsel-parallel, in ascending Value order, and the same rows as the
// statement VIA baseline, whose engine emits in an unrelated order.
func TestFinishOrderAndBaseline(t *testing.T) {
	demo, err := server.DemoDatabase(12)
	if err != nil {
		t.Fatal(err)
	}
	srcs := append(server.DemoWarmQueries(),
		server.DemoHeavyQuery(),
		`SELECT gx, gz FROM G1, G2`,
		`SELECT gz, gx FROM G1, G2`,
		`SELECT COUNT(*) FROM G1, G2`,
		`SELECT gy, COUNT(*), MIN(gz), MAX(gx) FROM G1, G2 GROUP BY gy`,
	)
	for _, src := range srcs {
		checkFinish(t, demo, src)
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{NodeBudget: 120, TagDomain: 3, Tables: rng.Intn(3), MaxTableRows: 30})
		if err != nil {
			t.Fatal(err)
		}
		db, from, attrs := instanceDB(t, inst)
		pick := attrs[rng.Intn(len(attrs))]
		other := attrs[rng.Intn(len(attrs))]
		var proj []string
		for _, i := range rng.Perm(len(attrs))[:1+rng.Intn(len(attrs))] {
			proj = append(proj, attrs[i])
		}
		for _, src := range []string{
			`SELECT * FROM ` + from,
			`SELECT ` + strings.Join(proj, ", ") + ` FROM ` + from,
			`SELECT COUNT(*) FROM ` + from,
			fmt.Sprintf(`SELECT %s, COUNT(*), MIN(%s), MAX(%s) FROM %s GROUP BY %s`, pick, other, other, from, pick),
			`SELECT * FROM L, ` + from + ` WHERE label = 'l0'`,
			`SELECT ` + pick + ` FROM L, ` + from + ` WHERE label = 'absent'`,
		} {
			checkFinish(t, db, src)
		}
	}
}

// checkFinish runs src serially, morsel-parallel and VIA baseline.
func checkFinish(t *testing.T, db *xmjoin.Database, src string) {
	t.Helper()
	p, err := mmql.PrepareString(db, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	serial, err := p.ExecuteCtx(context.Background(), xmjoin.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	for _, workers := range []int{-1, 4} {
		par, err := p.ExecuteCtx(context.Background(), xmjoin.ExecOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("%s: parallelism %d: %v", src, workers, err)
		}
		if !reflect.DeepEqual(par.Attrs, serial.Attrs) || !reflect.DeepEqual(par.Rows, serial.Rows) {
			t.Fatalf("%s: parallelism %d rows differ from serial:\n got %v\nwant %v", src, workers, par.Rows, serial.Rows)
		}
	}
	st, err := mmql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checkValueOrder(t, db, src, st.Items, serial)
	st.Algo = "baseline"
	base, err := mmql.RunCtx(context.Background(), db, st)
	if err != nil {
		t.Fatalf("%s VIA baseline: %v", src, err)
	}
	if reflect.DeepEqual(base.Attrs, serial.Attrs) {
		if !reflect.DeepEqual(base.Rows, serial.Rows) {
			t.Fatalf("%s: rows differ from VIA baseline:\n got %v\nwant %v", src, serial.Rows, base.Rows)
		}
	} else if got, want := rowSet(t, serial, serial.Attrs), rowSet(t, base, serial.Attrs); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rows differ from VIA baseline:\n got %v\nwant %v", src, got, want)
	}
}

// checkValueOrder asserts the documented output order: rows ascend in
// Value order over the output columns — for aggregates, over the leading
// GROUP BY columns, which then never repeat.
func checkValueOrder(t *testing.T, db *xmjoin.Database, src string, items []mmql.SelectItem, out *mmql.Output) {
	t.Helper()
	width := len(out.Attrs)
	for i, it := range items {
		if it.Func != mmql.AggNone {
			width = i
			break
		}
	}
	var prev []relational.Value
	for _, row := range out.Rows {
		key := make([]relational.Value, width)
		for i := range key {
			vs := xmldb.LookupDisplay(db.Dict(), row[i])
			if len(vs) != 1 {
				t.Fatalf("%q: output cell %q is not one dictionary Value", src, row[i])
			}
			key[i] = vs[0]
		}
		if c := slices.Compare(prev, key); prev != nil && (c > 0 || c == 0 && width < len(out.Attrs)) {
			t.Fatalf("%q: rows out of Value order: %v after %v", src, key, prev)
		}
		prev = key
	}
}

// rowSet returns out's rows with their columns reordered to attrs, sorted.
func rowSet(t *testing.T, out *mmql.Output, attrs []string) []string {
	t.Helper()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		if cols[i] = slices.Index(out.Attrs, a); cols[i] < 0 {
			t.Fatalf("columns %v lack %q", out.Attrs, a)
		}
	}
	var rows []string
	for _, r := range out.Rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = r[c]
		}
		rows = append(rows, strings.Join(cells, "|"))
	}
	slices.Sort(rows)
	return rows
}

// TestSelectStarIsASet pins the contracts that let the finish skip dedup
// for SELECT * and make its sort a linear pass: every plan mode and the
// baseline return a duplicate-free engine result, and every generic-join
// plan mode emits it in ascending Value order at any parallelism.
func TestSelectStarIsASet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		db, from, _ := instanceDB(t, inst)
		var tables []string
		for _, tb := range inst.Tables {
			tables = append(tables, tb.Name())
		}
		for _, mode := range []xmjoin.PlanMode{xmjoin.PlanWCOJ, xmjoin.PlanHybrid, xmjoin.PlanBinary} {
			for _, workers := range []int{1, 4} {
				q, err := db.QueryOn([]xmjoin.TwigOn{{Twig: inst.Pattern.String()}}, tables...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := q.WithPlan(mode).WithParallelism(workers).ExecXJoin()
				if err != nil {
					t.Fatal(err)
				}
				if tuples, _ := res.Encoded(); !slices.IsSortedFunc(tuples, slices.Compare[relational.Tuple]) {
					t.Fatalf("%s, plan %v, %d workers: engine result not in ascending Value order", from, mode, workers)
				}
			}
		}
		for _, via := range []string{"xjoin", "hybrid", "binary", "baseline"} {
			src := `SELECT * FROM ` + from + ` VIA ` + via
			out, err := mmql.RunString(db, src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			seen := make(map[string]bool, len(out.Rows))
			for _, r := range out.Rows {
				k := strings.Join(r, "\x00")
				if seen[k] {
					t.Fatalf("%s: duplicate row %v", src, r)
				}
				seen[k] = true
			}
		}
	}
}

// instanceDB loads a generated instance into a Database through the
// public loaders, plus a label table L mapping the twig root's tag values
// to "l0"/"l1" — an attribute outside every twig, so WHERE on it stays a
// residual filter. It returns the database, the FROM list joining all of
// it but L, and the query's attributes.
func instanceDB(t *testing.T, inst *datagen.Instance) (*xmjoin.Database, string, []string) {
	t.Helper()
	var sb strings.Builder
	writeXML(&sb, inst.Doc, inst.Doc.Root())
	db := xmjoin.NewDatabase()
	if err := db.LoadXMLString(sb.String()); err != nil {
		t.Fatal(err)
	}
	var from []string
	for _, tb := range inst.Tables {
		var rows [][]string
		for i := 0; i < tb.Len(); i++ {
			var row []string
			for _, v := range tb.Row(i) {
				row = append(row, inst.Dict.String(v))
			}
			rows = append(rows, row)
		}
		if err := db.AddTableRows(tb.Name(), tb.Schema().Attrs(), rows); err != nil {
			t.Fatal(err)
		}
		from = append(from, tb.Name())
	}
	root := inst.Pattern.Attrs()[0]
	var labels [][]string
	for i, id := range inst.Doc.NodesByTag(root) {
		labels = append(labels, []string{inst.Dict.String(inst.Doc.Value(id)), fmt.Sprintf("l%d", i%2)})
	}
	if err := db.AddTableRows("L", []string{root, "label"}, labels); err != nil {
		t.Fatal(err)
	}
	from = append(from, fmt.Sprintf("TWIG '%s'", inst.Pattern))
	return db, strings.Join(from, ", "), inst.Pattern.Attrs()
}

func writeXML(sb *strings.Builder, doc *xmldb.Document, id xmldb.NodeID) {
	tag := doc.Tag(id)
	sb.WriteString("<" + tag + ">")
	if v := doc.Value(id); !xmldb.IsSyntheticValue(doc.Dict(), v) {
		xml.EscapeText(sb, []byte(doc.Dict().String(v)))
	}
	for _, c := range doc.Children(id) {
		writeXML(sb, doc, c)
	}
	sb.WriteString("</" + tag + ">")
}
