package mmql

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relational"
	"repro/internal/xmldb"
)

// prepareEquivalenceQueries covers every residual-work combination the
// prepared path replays: projection, residual filters, aggregates, GROUP
// BY, LIMIT pushed and post-hoc, EXISTS with and without residuals.
var prepareEquivalenceQueries = []string{
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`,
	`SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`,
	`SELECT COUNT(*), MIN(price) FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`SELECT userID, COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price' GROUP BY userID`,
	`EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`,
	`EXISTS SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody'`,
	`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' VIA hybrid`,
}

// TestPreparedMatchesBaseline: every statement shape, executed cold and
// then warm through one Prepared, must produce the output of the same
// statement run VIA baseline — TwigStack plus binary joins, an engine
// independent of the prepared XJoin plan.
func TestPreparedMatchesBaseline(t *testing.T) {
	for _, src := range prepareEquivalenceQueries {
		db := testDB(t)
		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		st.Algo = "baseline"
		want, err := RunCtx(nil, db, st)
		if err != nil {
			t.Fatalf("%s: baseline: %v", src, err)
		}
		p, err := PrepareString(db, src)
		if err != nil {
			t.Fatalf("%s: prepare: %v", src, err)
		}
		for round := 0; round < 2; round++ { // cold, then warm
			got, err := p.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatalf("%s: execute round %d: %v", src, round, err)
			}
			if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s round %d:\n got attrs=%v rows=%v\nwant attrs=%v rows=%v",
					src, round, got.Attrs, got.Rows, want.Attrs, want.Rows)
			}
		}
	}
}

// TestPreparedWarmSkipsCatalog: the second execution of a prepared
// statement must add zero catalog misses — the serving-layer cache's
// whole point.
func TestPreparedWarmSkipsCatalog(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CatalogMisses != cold.Stats.CatalogMisses {
		t.Fatalf("warm run built indexes: cold misses %d, warm misses %d",
			cold.Stats.CatalogMisses, warm.Stats.CatalogMisses)
	}
}

// TestPreparedRowsStreaming: the streaming cursor must deliver the
// projected, filtered rows of the materialized path — as a multiset, since
// a stream neither deduplicates nor orders (see Streamable).
func TestPreparedRowsStreaming(t *testing.T) {
	db := testDB(t)
	src := `SELECT userID, price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'jack'`
	p, err := PrepareString(db, src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Streamable() {
		t.Fatal("plain SELECT should be streamable")
	}
	rows, err := p.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); !reflect.DeepEqual(got, []string{"userID", "price"}) {
		t.Fatalf("columns = %v", got)
	}
	seen := map[string]int{}
	for batch := rows.NextBatch(); batch != nil; batch = rows.NextBatch() {
		for _, row := range batch {
			if len(row) != 2 {
				t.Fatalf("row width %d: %v", len(row), row)
			}
			seen[row[0]+"|"+row[1]]++
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen["jack|30"] == 0 {
		t.Fatalf("streamed rows = %v, want jack|30", seen)
	}
	if _, ok := rows.Stats(); !ok {
		t.Fatal("stats unavailable after exhausted stream")
	}
}

// TestPreparedRowsLimit: the cursor must stop the join once LIMIT rows
// left the filter/projection, even when the limit could not be pushed
// into the engine.
func TestPreparedRowsLimit(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT userID FROM R, TWIG '/invoices/orderLine[orderID]/price' LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Rows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var n int
	for batch := rows.NextBatch(); batch != nil; batch = rows.NextBatch() {
		n += len(batch)
	}
	if n != 1 {
		t.Fatalf("LIMIT 1 streamed %d rows", n)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedExplain: a prepared EXPLAIN executes to the plan text, and
// every execution of a prepared EXPLAIN ANALYZE runs under its own trace —
// two executions return two span trees, not one growing tree.
func TestPreparedExplain(t *testing.T) {
	db := testDB(t)
	const sel = `SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price'`
	p, err := PrepareString(db, "EXPLAIN "+sel)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != plan || !strings.Contains(plan, "PA") || out.Stats != nil || p.Streamable() {
		t.Fatalf("EXPLAIN output (stats=%v, streamable=%v):\n%s\nwant the plan:\n%s", out.Stats, p.Streamable(), out.Text, plan)
	}

	p, err = PrepareString(db, "EXPLAIN ANALYZE "+sel)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for i := 0; i < 2; i++ {
		out, err := p.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats == nil || out.Stats.Output == 0 {
			t.Fatalf("execution %d did not run: %+v", i, out.Stats)
		}
		texts = append(texts, out.Text)
	}
	for i, text := range texts {
		// Top-level spans render as "\n  name  [duration]": one of each
		// per tree, or the executions shared a trace.
		for _, span := range []string{"parse", "prepare", "plan", "execute"} {
			if n := strings.Count(text, "\n  "+span+"  ["); n != 1 {
				t.Fatalf("execution %d: %d %q spans, want 1:\n%s", i, n, span, text)
			}
		}
	}
}

// TestPreparedAggregateNotStreamable pins the Streamable contract.
func TestPreparedAggregateNotStreamable(t *testing.T) {
	db := testDB(t)
	p, err := PrepareString(db, `SELECT COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price'`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Streamable() {
		t.Fatal("aggregate should not be streamable")
	}
	if _, err := p.Rows(context.Background()); err == nil {
		t.Fatal("Rows on an aggregate: want error")
	}
}

// TestResidualFilterAbsentConstant: a residual WHERE constant the
// dictionary has never seen answers empty and complete — not cancelled,
// not an error — for plain, projected and aggregate statements alike.
func TestResidualFilterAbsentConstant(t *testing.T) {
	db := testDB(t)
	for _, src := range []string{
		`SELECT * FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody'`,
		`SELECT price FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody'`,
		`SELECT userID, COUNT(*) FROM R, TWIG '/invoices/orderLine[orderID]/price' WHERE userID = 'nobody' GROUP BY userID`,
	} {
		p, err := PrepareString(db, src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.ExecuteCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(out.Rows) != 0 || out.Stats == nil || out.Stats.Cancelled {
			t.Fatalf("%s: rows=%v stats=%+v, want an empty complete answer", src, out.Rows, out.Stats)
		}
	}
}

// TestFilterTuplesDisplayForm: a residual constant matches a Value
// exactly when DisplayValue renders the Value as the constant, so the
// "<node#N>" form finds its structural node and no text.
func TestFilterTuplesDisplayForm(t *testing.T) {
	dict := relational.NewDict()
	node := dict.Intern(xmldb.SyntheticValueName(3))
	text := dict.Intern("<node#4>") // real text that merely looks structural
	other := dict.Intern("x")
	tuples := []relational.Tuple{{node}, {text}, {other}}
	for _, c := range []struct {
		value string
		want  []relational.Tuple
	}{
		{"<node#3>", []relational.Tuple{{node}}},
		{"<node#4>", []relational.Tuple{{text}}},
		{"x", []relational.Tuple{{other}}},
		{"\x00node#3", nil},
		{"<node#9>", nil},
	} {
		got, err := filterTuples([]string{"a"}, tuples, dict, []Filter{{Attr: "a", Value: c.value}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("WHERE a = %q kept %v, want %v", c.value, got, c.want)
		}
	}
}

// TestWhereNodeDisplayForm: a WHERE constant in the "<node#N>" form the
// output uses for a textless element selects that element, whether the
// statement materializes, runs VIA baseline or asks EXISTS.
func TestWhereNodeDisplayForm(t *testing.T) {
	db := testDB(t)
	const from = ` FROM TWIG '/invoices/orderLine[orderID]/price' WHERE orderLine = '<node#5>'`
	for _, via := range []string{"", " VIA baseline"} {
		out, err := RunString(db, `SELECT orderLine, price`+from+via)
		if err != nil {
			t.Fatal(err)
		}
		if want := [][]string{{"<node#5>", "20"}}; !reflect.DeepEqual(out.Rows, want) {
			t.Fatalf("%q: rows %v, want %v", via, out.Rows, want)
		}
	}
	out, err := RunString(db, `EXISTS SELECT *`+from)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0] != "true" {
		t.Fatalf("EXISTS = %v, want true", out.Rows)
	}
}
