package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"

	xmjoin "repro"
)

// expect is a statement's oracle answer: the hashes of its distinct output
// rows, fields in cols order. Hashes keep the answers of the largest
// statements out of the heap the garbage collector scans while the server
// is measured in the same process; a wrong row passing as a right one
// needs a 64-bit collision.
type expect struct {
	cols  []string
	set   map[uint64]struct{}
	limit int // > 0: any min(limit, len(set)) distinct rows of set are correct
}

// want is how many distinct rows a complete answer holds.
func (e *expect) want() int {
	if e.limit > 0 && e.limit < len(e.set) {
		return e.limit
	}
	return len(e.set)
}

// oracle computes expected answers with the per-model baseline
// (Query.ExecBaseline: hash joins for the tables, holistic twig matching
// for the document) over its own copy of each tenant's data, and derives
// each statement's answer from its base join in this file's own code.
// Once every answer a run needs is computed, release drops the data and
// the base joins, so only the hashed answers stay in the process.
type oracle struct {
	dbs     map[string]*xmjoin.Database
	bases   map[string]*xmjoin.Result
	expects map[string]*expect
}

func newOracle(tenants []tenantInput) (*oracle, error) {
	o := &oracle{dbs: map[string]*xmjoin.Database{}, bases: map[string]*xmjoin.Result{}, expects: map[string]*expect{}}
	for _, in := range tenants {
		db, err := loadDatabase(in)
		if err != nil {
			return nil, err
		}
		o.dbs[in.Name] = db
	}
	return o, nil
}

// release drops the oracle's databases and base joins; later statements
// must have had their answers computed already.
func (o *oracle) release() { o.dbs, o.bases = nil, nil }

func (o *oracle) base(tenant string, b base) (*xmjoin.Result, error) {
	key := tenant + "|" + b.Twig + "|" + strings.Join(b.Tables, ",")
	if r, ok := o.bases[key]; ok {
		return r, nil
	}
	if o.dbs == nil {
		return nil, fmt.Errorf("oracle %s: asked after release", key)
	}
	var twigs []xmjoin.TwigOn
	if b.Twig != "" {
		twigs = []xmjoin.TwigOn{{Twig: b.Twig}}
	}
	q, err := o.dbs[tenant].QueryOn(twigs, b.Tables...)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", key, err)
	}
	r, err := q.ExecBaseline()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", key, err)
	}
	o.bases[key] = r
	return r, nil
}

const countCol = "count(*)"

// expect returns (and caches) the oracle answer of s.
func (o *oracle) expect(s *stmt) (*expect, error) {
	if e, ok := o.expects[s.Tenant+"|"+s.Text]; ok {
		return e, nil
	}
	res, err := o.base(s.Tenant, s.Base)
	if err != nil {
		return nil, err
	}
	attrs := res.Attrs()
	pos := func(a string) (int, error) {
		for i, x := range attrs {
			if x == a {
				return i, nil
			}
		}
		return 0, fmt.Errorf("oracle: %q has no attribute %q", s.Text, a)
	}
	filter := -1
	if s.Filter[0] != "" {
		if filter, err = pos(s.Filter[0]); err != nil {
			return nil, err
		}
	}
	cols := s.Items
	if cols == nil && !s.Count {
		cols = attrs
	}
	idx := make([]int, len(cols))
	for i, a := range cols {
		if idx[i], err = pos(a); err != nil {
			return nil, err
		}
	}
	// The base result is a set of full tuples; COUNT(*) counts them.
	type group struct {
		row []string
		n   int
	}
	full := map[uint64]struct{}{}
	groups := map[uint64]*group{}
	e := &expect{cols: append([]string(nil), cols...), set: map[uint64]struct{}{}, limit: s.Limit}
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		if filter >= 0 && row[filter] != s.Filter[1] {
			continue
		}
		out := make([]string, len(idx))
		for j, c := range idx {
			out[j] = row[c]
		}
		k := rowHash(out)
		if !s.Count {
			e.set[k] = struct{}{}
			continue
		}
		fk := rowHash(row)
		if _, dup := full[fk]; dup {
			continue
		}
		full[fk] = struct{}{}
		if groups[k] == nil {
			groups[k] = &group{row: out}
		}
		groups[k].n++
	}
	if s.Count {
		e.cols = append(e.cols, countCol)
		if len(s.Items) == 0 && len(groups) == 0 {
			groups[0] = &group{} // COUNT(*) of nothing is one row: 0
		}
		for _, g := range groups {
			e.set[rowHash(append(g.row, strconv.Itoa(g.n)))] = struct{}{}
		}
	}
	o.expects[s.Tenant+"|"+s.Text] = e
	return e, nil
}

var rowSeed = maphash.MakeSeed()

// rowHash hashes a row's fields in order, each ended by a NUL, which no
// generated value contains.
func rowHash(row []string) uint64 {
	var h maphash.Hash
	h.SetSeed(rowSeed)
	for _, f := range row {
		h.WriteString(f)
		h.WriteByte(0)
	}
	return h.Sum64()
}

// verdict is the outcome of checking one answer against the oracle.
type verdict struct {
	rows     int
	distinct int
	dups     int // rows beyond the distinct answer
}

var errWrong = errors.New("wrong answer")

// check compares an answer against e. A cancelled answer must be a subset
// of the oracle; any other answer must be complete. dupsOK admits repeated
// rows (the /stream contract), which are counted, not dropped.
func (e *expect) check(cols []string, rows [][]string, cancelled, dupsOK bool) (verdict, error) {
	v := verdict{rows: len(rows)}
	// An empty cancelled answer is a subset whatever its columns; the
	// server sends none when the deadline expired in the admission queue.
	if cancelled && len(rows) == 0 {
		return v, nil
	}
	if len(cols) != len(e.cols) {
		return v, fmt.Errorf("%w: columns %v, want %v", errWrong, cols, e.cols)
	}
	perm := make([]int, len(e.cols))
	for i, c := range e.cols {
		perm[i] = -1
		for j, rc := range cols {
			if rc == c {
				perm[i] = j
			}
		}
		if perm[i] < 0 {
			return v, fmt.Errorf("%w: columns %v, want %v", errWrong, cols, e.cols)
		}
	}
	seen := make(map[uint64]struct{}, len(rows))
	buf := make([]string, len(perm))
	for _, row := range rows {
		if len(row) != len(perm) {
			return v, fmt.Errorf("%w: row %v has %d fields", errWrong, row, len(row))
		}
		for i, j := range perm {
			buf[i] = row[j]
		}
		k := rowHash(buf)
		if _, ok := e.set[k]; !ok {
			return v, fmt.Errorf("%w: row %v is not in the oracle answer", errWrong, buf)
		}
		seen[k] = struct{}{}
	}
	v.distinct = len(seen)
	v.dups = len(rows) - len(seen)
	if v.dups > 0 && !dupsOK {
		return v, fmt.Errorf("%w: %d duplicate rows", errWrong, v.dups)
	}
	if !cancelled && v.distinct != e.want() {
		return v, fmt.Errorf("%w: %d distinct rows not flagged cancelled, want %d", errWrong, v.distinct, e.want())
	}
	return v, nil
}
