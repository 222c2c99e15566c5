package mmql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/xmldb"
)

// AggFunc names an aggregate function.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "none"
	}
}

// SelectItem is one projection: a plain attribute or an aggregate over one
// (COUNT also accepts *).
type SelectItem struct {
	Func AggFunc
	// Attr is the attribute, or "*" for COUNT(*).
	Attr string
}

// Label renders the item's output column name.
func (it SelectItem) Label() string {
	if it.Func == AggNone {
		return it.Attr
	}
	return it.Func.String() + "(" + it.Attr + ")"
}

// Output is a fully decoded query answer: the shell-facing form.
type Output struct {
	Attrs []string
	Rows  [][]string
	// Text, when non-empty, replaces the tabular rendering — EXPLAIN's
	// plan and EXPLAIN ANALYZE's span tree come back here.
	Text string
	// Stats carries the engine run's statistics when the statement executed
	// a join (nil for EXISTS, which only probes for one answer). It includes
	// the shared index catalog's counters, so the shell can show whether a
	// statement ran warm (zero catalog misses added) or had to build.
	Stats *core.Stats
}

// String renders the output as an aligned table with a row count, or
// returns Text verbatim for EXPLAIN forms.
func (o *Output) String() string {
	if o.Text != "" {
		return o.Text
	}
	widths := make([]int, len(o.Attrs))
	for i, a := range o.Attrs {
		widths[i] = len(a)
	}
	for _, r := range o.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == len(cells)-1 {
				sb.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(o.Attrs)
	for _, r := range o.Rows {
		writeRow(r)
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(o.Rows))
	return sb.String()
}

// aggregate evaluates grouped aggregates over encoded tuples. attrs names
// the tuple positions; items and groupBy come from the statement. Groups
// are keyed on Values and come out in ascending Value order of their GROUP
// BY key, at most limit of them (0 = all). COUNT never decodes; SUM, MIN
// and MAX decode and parse each distinct Value once. An empty input has no
// groups, so it yields no rows.
func aggregate(attrs []string, tuples []relational.Tuple, dict *relational.Dict, items []SelectItem, groupBy []string, limit int) (*Output, error) {
	col := make(map[string]int, len(attrs))
	for i, a := range attrs {
		col[a] = i
	}
	groupCols := make([]int, len(groupBy))
	for i, g := range groupBy {
		c, ok := col[g]
		if !ok {
			return nil, fmt.Errorf("mmql: GROUP BY references unknown attribute %q", g)
		}
		groupCols[i] = c
	}
	// Validate items: plain attributes must be grouped; aggregates must
	// reference known attributes.
	grouped := make(map[string]bool, len(groupBy))
	for _, g := range groupBy {
		grouped[g] = true
	}
	for _, it := range items {
		if it.Func == AggNone {
			if !grouped[it.Attr] {
				return nil, fmt.Errorf("mmql: %q must appear in GROUP BY or inside an aggregate", it.Attr)
			}
			continue
		}
		if it.Attr == "*" {
			if it.Func != AggCount {
				return nil, fmt.Errorf("mmql: %s(*) is not allowed; only COUNT(*)", it.Func)
			}
			continue
		}
		if _, ok := col[it.Attr]; !ok {
			return nil, fmt.Errorf("mmql: aggregate references unknown attribute %q", it.Attr)
		}
	}
	out := &Output{}
	for _, it := range items {
		out.Attrs = append(out.Attrs, it.Label())
	}
	if len(tuples) == 0 {
		return out, nil
	}

	// Group ids per tuple; without GROUP BY every tuple is in group 0 and
	// the group's size is the tuple count.
	groups := relational.NewKeySet(len(groupCols))
	var gids []int32
	var sizes []int
	if len(groupCols) == 0 {
		groups.Add(nil)
		sizes = []int{len(tuples)}
	} else {
		gids = make([]int32, len(tuples))
		key := make([]relational.Value, len(groupCols))
		for r, t := range tuples {
			for i, c := range groupCols {
				key[i] = t[c]
			}
			g, added := groups.Add(key)
			if added {
				sizes = append(sizes, 0)
			}
			sizes[g]++
			gids[r] = int32(g)
		}
	}
	group := func(r int) int {
		if gids == nil {
			return 0
		}
		return int(gids[r])
	}

	cells := cellCache{dict: dict, m: make(map[relational.Value]cell)}
	sums := make([][]float64, len(items))
	best := make([][]relational.Value, len(items)) // MIN/MAX per group
	for i, it := range items {
		if it.Func != AggSum && it.Func != AggMin && it.Func != AggMax {
			continue
		}
		c := col[it.Attr]
		if it.Func == AggSum {
			sums[i] = make([]float64, groups.Len())
		} else {
			best[i] = make([]relational.Value, groups.Len())
			for g := range best[i] {
				best[i][g] = relational.Null
			}
		}
		for r, t := range tuples {
			g, v := group(r), t[c]
			switch it.Func {
			case AggSum:
				x := cells.get(v)
				if !x.num {
					return nil, fmt.Errorf("mmql: SUM(%s): non-numeric value %q", it.Attr, x.s)
				}
				sums[i][g] += x.f
			case AggMin, AggMax:
				b := best[i][g]
				if b == v {
					continue
				}
				if b == relational.Null {
					best[i][g] = v
					continue
				}
				d := compareCells(cells.get(v), cells.get(b))
				if (it.Func == AggMin && d < 0) || (it.Func == AggMax && d > 0) {
					best[i][g] = v
				}
			}
		}
	}

	keys := groups.Tuples()
	order := make([]int, len(keys))
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(keys[a], keys[b]) })
	if limit > 0 && len(order) > limit {
		order = order[:limit]
	}
	groupPos := make(map[string]int, len(groupBy))
	for i, g := range groupBy {
		groupPos[g] = i
	}
	flat := make([]string, len(order)*len(items))
	out.Rows = make([][]string, len(order))
	for n, g := range order {
		row := flat[n*len(items) : (n+1)*len(items) : (n+1)*len(items)]
		for i, it := range items {
			switch it.Func {
			case AggNone:
				row[i] = xmldb.DisplayValue(dict, keys[g][groupPos[it.Attr]])
			case AggCount:
				row[i] = strconv.Itoa(sizes[g])
			case AggSum:
				row[i] = strconv.FormatFloat(sums[i][g], 'g', -1, 64)
			case AggMin, AggMax:
				row[i] = cells.get(best[i][g]).s
			}
		}
		out.Rows[n] = row
	}
	return out, nil
}

// cell is one decoded Value: its display text and, when the text parses
// as a number, that number.
type cell struct {
	s   string
	f   float64
	num bool
}

// cellCache decodes and parses each distinct Value once.
type cellCache struct {
	dict *relational.Dict
	m    map[relational.Value]cell
}

func (c *cellCache) get(v relational.Value) cell {
	if x, ok := c.m[v]; ok {
		return x
	}
	s := xmldb.DisplayValue(c.dict, v)
	f, err := strconv.ParseFloat(s, 64)
	x := cell{s: s, f: f, num: err == nil}
	c.m[v] = x
	return x
}

// compareCells compares numerically when both values parse as numbers,
// lexicographically otherwise — so MIN(price) behaves sanely on numeric
// text without a type system.
func compareCells(a, b cell) int {
	if a.num && b.num {
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.s, b.s)
}
