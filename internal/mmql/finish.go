package mmql

import (
	"fmt"
	"slices"

	xmjoin "repro"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// finish applies the residual post-join work to a materialized result in
// the dictionary's Value domain — filters, projection with dedup, order,
// aggregates, LIMIT — and decodes only the rows that leave.
func (p *Prepared) finish(res *xmjoin.Result) (*Output, error) {
	attrs := res.Attrs()
	tuples, dict := res.Encoded()
	tuples, err := filterTuples(attrs, tuples, dict, p.remaining)
	if err != nil {
		return nil, err
	}
	var out *Output
	if p.st.HasAggregates() || len(p.st.GroupBy) > 0 {
		out, err = aggregate(attrs, tuples, dict, p.st.Items, p.st.GroupBy, p.st.Limit)
	} else {
		out, err = project(attrs, tuples, dict, p.st.Items, p.st.Limit)
	}
	if err != nil {
		return nil, err
	}
	stats := res.Stats()
	out.Stats = &stats
	return out, nil
}

// filterTuples keeps the tuples matching every residual attr = value
// selection. Each constant is looked up in the dictionary once, under
// every Value that displays as it (see xmldb.LookupDisplay); a constant
// with none empties the answer without a scan.
func filterTuples(attrs []string, tuples []relational.Tuple, dict *relational.Dict, filters []Filter) ([]relational.Tuple, error) {
	if len(filters) == 0 {
		return tuples, nil
	}
	cols, err := filterColumns(attrs, filters)
	if err != nil {
		return nil, err
	}
	accept := make([][]relational.Value, len(filters))
	for i, f := range filters {
		if accept[i] = xmldb.LookupDisplay(dict, f.Value); len(accept[i]) == 0 {
			return nil, nil
		}
	}
	var out []relational.Tuple
next:
	for _, t := range tuples {
		for i, c := range cols {
			if !slices.Contains(accept[i], t[c]) {
				continue next
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// project projects tuples onto the SELECT list (nil = every column, which
// needs no dedup: an engine result is already a set), deduplicates, puts
// the rows in ascending Value order and decodes the first limit of them
// (0 = all).
func project(attrs []string, tuples []relational.Tuple, dict *relational.Dict, items []SelectItem, limit int) (*Output, error) {
	out := &Output{Attrs: attrs}
	if items != nil {
		pos := make(map[string]int, len(attrs))
		for i, a := range attrs {
			pos[a] = i
		}
		out.Attrs = make([]string, len(items))
		cols := make([]int, len(items))
		for i, it := range items {
			c, ok := pos[it.Attr]
			if !ok {
				return nil, fmt.Errorf("mmql: SELECT references unknown attribute %q", it.Attr)
			}
			cols[i], out.Attrs[i] = c, it.Attr
		}
		tuples = relational.ProjectDistinct(tuples, cols)
	}
	relational.SortTuples(tuples)
	if limit > 0 && len(tuples) > limit {
		tuples = tuples[:limit]
	}
	out.Rows = decodeRows(dict, tuples, len(out.Attrs))
	return out, nil
}

// decodeRows renders width-wide tuples as display strings, all rows
// sharing one flat backing array.
func decodeRows(dict *relational.Dict, tuples []relational.Tuple, width int) [][]string {
	if len(tuples) == 0 {
		return nil
	}
	flat := make([]string, len(tuples)*width)
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		for j, v := range t {
			row[j] = xmldb.DisplayValue(dict, v)
		}
		rows[i] = row
	}
	return rows
}
