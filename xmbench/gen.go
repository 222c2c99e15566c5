package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// Fixed sizes. The seed chooses values, constants and arrival times, never
// how much data there is.
const (
	shopOrders   = 1000 // orderLines in each shop tenant's invoices document
	shopUsers    = 40
	shopISBNs    = 60
	gridScale    = 48 // analytic grid: G1 ⋈ G2 = gridScale³ rows
	mixedScale   = 24 // mixed grid: long enough to queue lookups, short enough that most runs miss a stall of a shared host
	chainCount   = 100
	chainDepth   = 30 // //a//b yields chainCount·depth·(depth+1)/2 pairs
	graphNodes   = 2000
	graphEdges   = 60000
	pointPool    = 32 // repeated statement texts per point tenant
	uniqueOffset = 100000
)

type table struct {
	Name  string
	Attrs []string
	Rows  [][]string
}

// tenantInput is everything one tenant's database is loaded from.
type tenantInput struct {
	Name   string
	XML    string
	Tables []table
}

// base is a join shape the oracle evaluates once, with ExecBaseline.
type base struct {
	Twig   string // "" = no twig
	Tables []string
}

// stmt is one statement text plus what the oracle needs to derive its
// answer from a base result: an equality selection, a projection or a
// grouped COUNT(*), and a LIMIT.
type stmt struct {
	Text   string
	Tenant string
	Base   base
	Filter [2]string // attribute, value; empty attribute = none
	Items  []string  // nil = SELECT *
	Count  bool      // COUNT(*) after Items, grouped by Items
	Limit  int
}

// request is one scheduled request of a workload.
type request struct {
	Class    string
	Stmt     *stmt
	Stream   bool          // POST /stream instead of /query
	Deadline int           // X-Deadline-Ms, 0 = none
	Due      time.Duration // open loops: offset from the phase start
}

// newRand derives an independent stream for one part of the input, so
// adding a part never shifts the values of another.
func newRand(seed uint64, part string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(part); i++ {
		h = (h ^ uint64(part[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// distinct draws n distinct integers from [0, limit).
func distinct(r *rand.Rand, n, limit int) []int {
	return r.Perm(limit)[:n]
}

// shop holds the seeded constants of one invoices/R/S tenant.
type shop struct {
	orders []string
	isbns  []string
}

var (
	shopTwig   = `/invoices/orderLine[orderID]/price`
	shopTwigIS = `/invoices/orderLine[orderID][ISBN]/price`
)

func genShop(seed uint64, name string) (tenantInput, shop) {
	r := newRand(seed, "shop/"+name)
	var sh shop
	for _, v := range distinct(r, shopOrders, 900000) {
		sh.orders = append(sh.orders, fmt.Sprint(100000+v))
	}
	for _, v := range distinct(r, shopISBNs, 10000) {
		sh.isbns = append(sh.isbns, fmt.Sprintf("isbn-%04d", v))
	}
	var users []string
	for _, v := range distinct(r, shopUsers, 1000) {
		users = append(users, fmt.Sprintf("u%03d", v))
	}
	regions := []string{"east", "west", "north", "south"}

	var xb strings.Builder
	xb.WriteString("<invoices>\n")
	rRows := make([][]string, 0, shopOrders)
	for _, id := range sh.orders {
		fmt.Fprintf(&xb, "<orderLine><orderID>%s</orderID><ISBN>%s</ISBN><price>%d</price></orderLine>\n",
			id, sh.isbns[r.IntN(shopISBNs)], 5+r.IntN(90))
		rRows = append(rRows, []string{id, users[r.IntN(shopUsers)]})
	}
	xb.WriteString("</invoices>\n")
	sRows := make([][]string, 0, shopUsers)
	for _, u := range users {
		sRows = append(sRows, []string{u, regions[r.IntN(len(regions))]})
	}
	return tenantInput{Name: name, XML: xb.String(), Tables: []table{
		{"R", []string{"orderID", "userID"}, rRows},
		{"S", []string{"userID", "region"}, sRows},
	}}, sh
}

// genGrid adds the dense grids G1(gx, gy) and G2(gy, gz) over scale
// seeded labels each.
func genGrid(seed uint64, name string, scale int) []table {
	r := newRand(seed, "grid/"+name)
	label := func(prefix string) []string {
		var out []string
		for _, v := range distinct(r, scale, 10000) {
			out = append(out, fmt.Sprintf("%s%04d", prefix, v))
		}
		return out
	}
	xs, ys, zs := label("x"), label("y"), label("z")
	g1 := make([][]string, 0, scale*scale)
	g2 := make([][]string, 0, scale*scale)
	for a := 0; a < scale; a++ {
		for b := 0; b < scale; b++ {
			g1 = append(g1, []string{xs[a], ys[b]})
			g2 = append(g2, []string{ys[a], zs[b]})
		}
	}
	return []table{{"G1", []string{"gx", "gy"}, g1}, {"G2", []string{"gy", "gz"}, g2}}
}

// genChain is a document of chainCount nested chains of chainDepth <a>
// elements, each with a <b> child: a deep A-D workload for //a//b.
func genChain(seed uint64) string {
	r := newRand(seed, "chain")
	var sb strings.Builder
	sb.WriteString("<root>\n")
	for k := 0; k < chainCount; k++ {
		for d := 0; d < chainDepth; d++ {
			fmt.Fprintf(&sb, "<a>a%08x", r.Uint32())
		}
		for d := 0; d < chainDepth; d++ {
			fmt.Fprintf(&sb, "<b>b%08x</b></a>", r.Uint32())
		}
		sb.WriteString("\n")
	}
	sb.WriteString("</root>\n")
	return sb.String()
}

// genTriangle is a seeded random graph stored three times, as the edge
// tables of the triangle query E1(x, y) ⋈ E2(y, z) ⋈ E3(x, z).
func genTriangle(seed uint64) []table {
	r := newRand(seed, "triangle")
	seen := make(map[[2]int]bool, graphEdges)
	rows := make([][]string, 0, graphEdges)
	for len(rows) < graphEdges {
		u, v := r.IntN(graphNodes), r.IntN(graphNodes)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		rows = append(rows, []string{fmt.Sprintf("v%04d", u), fmt.Sprintf("v%04d", v)})
	}
	return []table{
		{"E1", []string{"x", "y"}, rows},
		{"E2", []string{"y", "z"}, rows},
		{"E3", []string{"x", "z"}, rows},
	}
}

// Point-lookup templates over a shop tenant. Constants ride in the twig
// as value predicates, so each statement's join shape is one of two
// bases and its answer is that base's answer under one selection.
func lookup(tenant string, kind int, sh shop, r *rand.Rand) *stmt {
	id := sh.orders[r.IntN(len(sh.orders))]
	isbn := sh.isbns[r.IntN(len(sh.isbns))]
	withID := strings.Replace(shopTwig, "[orderID]", fmt.Sprintf(`[orderID="%s"]`, id), 1)
	withISBN := strings.Replace(shopTwigIS, "[ISBN]", fmt.Sprintf(`[ISBN="%s"]`, isbn), 1)
	switch kind {
	case 0:
		return &stmt{Tenant: tenant, Base: base{shopTwig, []string{"R"}}, Filter: [2]string{"orderID", id},
			Items: []string{"userID", "price"},
			Text:  fmt.Sprintf(`SELECT userID, price FROM R, TWIG '%s'`, withID)}
	case 1:
		return &stmt{Tenant: tenant, Base: base{shopTwig, []string{"R", "S"}}, Filter: [2]string{"orderID", id},
			Items: []string{"userID", "region", "price"},
			Text:  fmt.Sprintf(`SELECT userID, region, price FROM R, S, TWIG '%s'`, withID)}
	case 2:
		return &stmt{Tenant: tenant, Base: base{shopTwigIS, nil}, Filter: [2]string{"ISBN", isbn},
			Items: []string{"orderID", "price"},
			Text:  fmt.Sprintf(`SELECT orderID, price FROM TWIG '%s'`, withISBN)}
	case 3:
		return &stmt{Tenant: tenant, Base: base{shopTwigIS, []string{"R", "S"}}, Filter: [2]string{"ISBN", isbn},
			Count: true,
			Text:  fmt.Sprintf(`SELECT COUNT(*) FROM R, S, TWIG '%s'`, withISBN)}
	default:
		return &stmt{Tenant: tenant, Base: base{shopTwigIS, []string{"R", "S"}}, Filter: [2]string{"ISBN", isbn},
			Items: []string{"region"}, Count: true,
			Text: fmt.Sprintf(`SELECT region, COUNT(*) FROM R, S, TWIG '%s' GROUP BY region`, withISBN)}
	}
}

const lookupKinds = 5

// streamable reports whether /stream runs the statement as a stream
// rather than materializing it first.
func (s *stmt) streamable() bool { return !s.Count }

// uniqueLookup is a lookup whose text no other request shares: a LIMIT
// far above its answer size keeps the answer whole.
func uniqueLookup(tenant string, sh shop, r *rand.Rand, seq int) *stmt {
	s := lookup(tenant, r.IntN(2), sh, r)
	s.Limit = uniqueOffset + seq
	s.Text = fmt.Sprintf("%s LIMIT %d", s.Text, s.Limit)
	return s
}

// limitProbe is SELECT * with an engine-side LIMIT: any k answers of the
// full join are correct.
func limitProbe(tenant string, k int) *stmt {
	return &stmt{Tenant: tenant, Base: base{shopTwig, []string{"R", "S"}}, Limit: k,
		Text: fmt.Sprintf(`SELECT * FROM R, S, TWIG '%s' LIMIT %d`, shopTwig, k)}
}

func gridStmt(tenant string) *stmt {
	return &stmt{Tenant: tenant, Base: base{"", []string{"G1", "G2"}}, Text: `SELECT * FROM G1, G2`}
}

// arrivals draws Poisson arrival offsets at rate per second over dur.
func arrivals(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
