package mmql_test

// BenchmarkMMQLFinish is the mmql rung of the layer ladder: for each
// statement over the heavy demo grid (G1 ⋈ G2 at scale 48, 110,592
// tuples) it times the engine alone — xmjoin.PreparedQuery.ExecuteCtx
// materializing the encoded result — next to the whole statement through
// mmql.Prepared.ExecuteCtx. The difference is the statement's finish:
// residual filters, projection with dedup, order, aggregates and decode.
//
// Run: go test -run NONE -bench MMQLFinish -benchmem ./internal/mmql/

import (
	"context"
	"testing"

	"repro/internal/mmql"
	"repro/internal/server"
)

func BenchmarkMMQLFinish(b *testing.B) {
	db, err := server.DemoDatabase(48)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := db.PrepareOn(nil, "G1", "G2")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct{ name, src string }{
		{"grid", `SELECT * FROM G1, G2`},
		{"projected", `SELECT gx, gz FROM G1, G2`},
		{"count", `SELECT COUNT(*) FROM G1, G2`},
	} {
		p, err := mmql.PrepareString(db, c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/engine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.ExecuteCtx(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/mmql", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteCtx(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
