package xmjoin

import (
	"fmt"
	"math/big"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// Result is a materialized query answer with string-decoded access.
type Result struct {
	db *Database
	r  *core.Result
}

// Attrs names the tuple positions.
func (r *Result) Attrs() []string { return r.r.Attrs }

// Len reports the number of answer tuples.
func (r *Result) Len() int { return len(r.r.Tuples) }

// Row decodes the i-th tuple to strings (structural XML nodes render as
// "<node#N>").
func (r *Result) Row(i int) []string {
	t := r.r.Tuples[i]
	out := make([]string, len(t))
	for j, v := range t {
		out[j] = xmldb.DisplayValue(r.db.dict, v)
	}
	return out
}

// Encoded exposes the answer as the engine holds it: the tuples, in
// Attrs order, of Values from the database's dictionary (decode with
// xmldb.DisplayValue, as Row does). Both alias the result and the
// database; callers must not mutate them.
func (r *Result) Encoded() ([]relational.Tuple, *relational.Dict) {
	return r.r.Tuples, r.db.dict
}

// Stats describes the run that produced this result.
func (r *Result) Stats() core.Stats { return r.r.Stats }

// Project reorders and deduplicates the result onto the given attributes.
func (r *Result) Project(attrs ...string) (*Result, error) {
	pr, err := r.r.Project(attrs)
	if err != nil {
		return nil, err
	}
	return &Result{db: r.db, r: pr}, nil
}

// Filter returns a new result holding the rows whose decoded string form
// satisfies keep. Statistics are inherited from the unfiltered run.
func (r *Result) Filter(keep func(row []string) bool) *Result {
	out := &Result{db: r.db, r: &core.Result{Attrs: r.r.Attrs, Stats: r.r.Stats}}
	for i := range r.r.Tuples {
		if keep(r.Row(i)) {
			out.r.Tuples = append(out.r.Tuples, r.r.Tuples[i])
		}
	}
	return out
}

// Sort orders the tuples lexicographically by their decoded string values,
// making output deterministic and human-stable. Ties keep their order.
func (r *Result) Sort() *Result {
	type decoded struct {
		row []string
		t   relational.Tuple
	}
	rows := make([]decoded, r.Len())
	for i := range rows {
		rows[i] = decoded{r.Row(i), r.r.Tuples[i]}
	}
	slices.SortStableFunc(rows, func(a, b decoded) int { return slices.Compare(a.row, b.row) })
	for i, d := range rows {
		r.r.Tuples[i] = d.t
	}
	return r
}

// Equal reports whether two results hold the same tuple set (attribute
// order insensitive).
func (r *Result) Equal(o *Result) bool { return core.EqualResults(r.r, o.r) }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	widths := make([]int, len(r.Attrs()))
	for i, a := range r.Attrs() {
		widths[i] = len(a)
	}
	rows := make([][]string, r.Len())
	for i := range rows {
		rows[i] = r.Row(i)
		for j, c := range rows[i] {
			if len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				sb.WriteString("  ")
			}
			if j == len(cells)-1 {
				sb.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[j], c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(r.Attrs())
	for _, row := range rows {
		writeRow(row)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", r.Len())
	return sb.String()
}

// Bounds exposes the query's worst-case size bounds.
type Bounds struct {
	b *core.Bounds
}

// Exponent is the exact AGM exponent ρ* of the full multi-model query:
// with all relations of size at most N, |Q| <= N^ρ*.
func (b *Bounds) Exponent() *big.Rat { return b.b.Exponent }

// TwigExponent is ρ* of the XML-only subquery Q2 (nil without a twig).
func (b *Bounds) TwigExponent() *big.Rat { return b.b.TwigExponent }

// RelationalExponent is ρ* of the relational-only subquery Q1 (nil without
// tables).
func (b *Bounds) RelationalExponent() *big.Rat { return b.b.RelationalExponent }

// Weighted instantiates the bound with the actual relation cardinalities.
func (b *Bounds) Weighted() float64 { return b.b.WeightedBound }

// Hypergraph renders the transformed hypergraph (Figure 2's output).
func (b *Bounds) Hypergraph() string { return b.b.Paper.String() }

// String summarizes the bounds.
func (b *Bounds) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "AGM exponent rho* = %s", b.b.Exponent.RatString())
	if b.b.RelationalExponent != nil {
		fmt.Fprintf(&sb, "; relational-only (Q1) = %s", b.b.RelationalExponent.RatString())
	}
	if b.b.TwigExponent != nil {
		fmt.Fprintf(&sb, "; twig-only (Q2) = %s", b.b.TwigExponent.RatString())
	}
	fmt.Fprintf(&sb, "; weighted bound = %.6g", b.b.WeightedBound)
	return sb.String()
}
