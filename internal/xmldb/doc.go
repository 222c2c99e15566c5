package xmldb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relational"
)

// SyntheticValueName is the dictionary string used as the value of a
// textless element: unique per node, prefixed with a NUL byte so it cannot
// collide with real character data (which encoding/xml never yields with
// embedded NULs).
func SyntheticValueName(id NodeID) string {
	return "\x00node#" + strconv.Itoa(int(id))
}

// IsSyntheticValue reports whether v is a synthesized structural-node value
// rather than real text.
func IsSyntheticValue(dict *relational.Dict, v relational.Value) bool {
	s := dict.String(v)
	return len(s) > 0 && s[0] == '\x00'
}

// DisplayValue renders v for humans: real text verbatim, synthetic values
// as "<node#N>".
func DisplayValue(dict *relational.Dict, v relational.Value) string {
	s := dict.String(v)
	if len(s) > 0 && s[0] == '\x00' {
		return "<" + s[1:] + ">"
	}
	return s
}

// LookupDisplay inverts DisplayValue without interning: it returns every
// Value of dict that DisplayValue renders as s — the text s itself and,
// for s of the form "<X>", the synthetic value X.
func LookupDisplay(dict *relational.Dict, s string) []relational.Value {
	var vs []relational.Value
	if v, ok := dict.Lookup(s); ok && !IsSyntheticValue(dict, v) {
		vs = append(vs, v)
	}
	if name, ok := SyntheticDisplayName(s); ok {
		if v, ok := dict.Lookup(name); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// SyntheticDisplayName reports whether s has the "<X>" form DisplayValue
// gives synthetic values, and returns the dictionary string of the
// synthetic value it would render.
func SyntheticDisplayName(s string) (string, bool) {
	if len(s) < 2 || s[0] != '<' || s[len(s)-1] != '>' {
		return "", false
	}
	return "\x00" + s[1:len(s)-1], true
}

// Document is an immutable XML document. Build one with a Builder or Parse.
type Document struct {
	dict     *relational.Dict
	nodes    []Node
	children [][]NodeID
	byTag    map[string][]NodeID // document order (ascending Start)
}

// Dict returns the value dictionary the document encodes into.
func (d *Document) Dict() *relational.Dict { return d.dict }

// Len reports the number of nodes.
func (d *Document) Len() int { return len(d.nodes) }

// Root returns the document element's ID (always 0 for non-empty documents).
func (d *Document) Root() NodeID { return 0 }

// Node returns the node with the given ID. The returned pointer aliases the
// document's storage and must not be mutated.
func (d *Document) Node(id NodeID) *Node { return &d.nodes[id] }

// Tag returns the node's tag name.
func (d *Document) Tag(id NodeID) string { return d.nodes[id].Tag }

// Value returns the node's encoded text value (relational.Null if none).
func (d *Document) Value(id NodeID) relational.Value { return d.nodes[id].Value }

// Parent returns the node's parent, or NoNode for the root.
func (d *Document) Parent(id NodeID) NodeID { return d.nodes[id].Parent }

// Children returns the node's children in document order. The caller must
// not mutate the returned slice.
func (d *Document) Children(id NodeID) []NodeID { return d.children[id] }

// NodesByTag returns all nodes with the given tag in document order.
func (d *Document) NodesByTag(tag string) []NodeID { return d.byTag[tag] }

// Tags returns the distinct tags, sorted.
func (d *Document) Tags() []string {
	out := make([]string, 0, len(d.byTag))
	for t := range d.byTag {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// IsAncestor reports whether a is a strict ancestor of n.
func (d *Document) IsAncestor(a, n NodeID) bool {
	na, nn := &d.nodes[a], &d.nodes[n]
	return na.Start < nn.Start && nn.End < na.End
}

// IsParent reports whether p is the parent of c.
func (d *Document) IsParent(p, c NodeID) bool {
	return d.nodes[c].Parent == p
}

// Builder assembles a Document from open/text/close events. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	dict    *relational.Dict
	nodes   []Node
	childs  [][]NodeID
	stack   []NodeID
	text    []*strings.Builder
	counter int32
	err     error
	closed  bool
}

// NewBuilder returns a builder encoding values into dict.
func NewBuilder(dict *relational.Dict) *Builder {
	return &Builder{dict: dict}
}

// Open starts a child element with the given tag.
func (b *Builder) Open(tag string) *Builder {
	if b.err != nil {
		return b
	}
	if b.closed {
		b.err = errors.New("xmldb: element opened after the root was closed")
		return b
	}
	if tag == "" {
		b.err = errors.New("xmldb: empty tag name")
		return b
	}
	id := NodeID(len(b.nodes))
	parent := NoNode
	level := int32(0)
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
		level = b.nodes[parent].Level + 1
		b.childs[parent] = append(b.childs[parent], id)
	} else if len(b.nodes) > 0 {
		b.err = errors.New("xmldb: multiple root elements")
		return b
	}
	b.nodes = append(b.nodes, Node{
		ID:     id,
		Parent: parent,
		Tag:    tag,
		Value:  relational.Null,
		Level:  level,
		Start:  b.counter,
	})
	b.counter++
	b.childs = append(b.childs, nil)
	b.stack = append(b.stack, id)
	b.text = append(b.text, &strings.Builder{})
	return b
}

// Text appends character data to the currently open element.
func (b *Builder) Text(s string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		if strings.TrimSpace(s) != "" {
			b.err = errors.New("xmldb: text outside any element")
		}
		return b
	}
	b.text[len(b.stack)-1].WriteString(s)
	return b
}

// Attr records an attribute of the currently open element as a child node
// tagged "@"+name holding the value.
func (b *Builder) Attr(name, value string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		b.err = errors.New("xmldb: attribute outside any element")
		return b
	}
	b.Open("@" + name)
	b.Text(value)
	b.Close()
	return b
}

// Leaf is shorthand for Open(tag).Text(value).Close().
func (b *Builder) Leaf(tag, value string) *Builder {
	return b.Open(tag).Text(value).Close()
}

// Close ends the currently open element, fixing its End position and value.
func (b *Builder) Close() *Builder {
	if b.err != nil {
		return b
	}
	n := len(b.stack)
	if n == 0 {
		b.err = errors.New("xmldb: Close without matching Open")
		return b
	}
	id := b.stack[n-1]
	b.stack = b.stack[:n-1]
	txt := strings.TrimSpace(b.text[n-1].String())
	b.text = b.text[:n-1]
	if txt != "" {
		b.nodes[id].Value = b.dict.Intern(txt)
	} else {
		// Textless (structural) elements get a synthetic per-node value so
		// every twig variable is bindable; at value level such nodes behave
		// exactly like node identities.
		b.nodes[id].Value = b.dict.Intern(SyntheticValueName(id))
	}
	b.nodes[id].End = b.counter
	b.counter++
	if len(b.stack) == 0 {
		b.closed = true
	}
	return b
}

// Done finalizes the document. It is an error if elements are still open,
// no element was ever opened, or any earlier event failed.
func (b *Builder) Done() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) > 0 {
		return nil, fmt.Errorf("xmldb: %d elements still open", len(b.stack))
	}
	if len(b.nodes) == 0 {
		return nil, errors.New("xmldb: empty document")
	}
	doc := &Document{
		dict:     b.dict,
		nodes:    b.nodes,
		children: b.childs,
		byTag:    make(map[string][]NodeID),
	}
	for i := range doc.nodes {
		n := &doc.nodes[i]
		doc.byTag[n.Tag] = append(doc.byTag[n.Tag], n.ID)
	}
	return doc, nil
}
