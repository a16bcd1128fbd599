// Package xmldb implements an in-memory native XML database, the storage
// substrate NaLIX queries run against (the paper used the Timber native XML
// database). Documents are parsed into ordered node trees annotated with
// pre/post-order numbers and depths, and indexed by element/attribute label
// and by text value, which is what the MQF computation and the XQuery
// evaluator need.
package xmldb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// NodeKind discriminates the kinds of nodes stored in a Document.
type NodeKind uint8

// The node kinds. Attributes are materialized as child nodes of their owner
// element so that label-based retrieval (doc//label) treats elements and
// attributes uniformly, as Schema-Free XQuery does.
const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
)

// String returns a short human-readable name for the kind.
func (k NodeKind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case AttributeNode:
		return "attribute"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a single node of an XML tree. Nodes are created by Parse or by a
// Builder and are immutable afterwards; the evaluator and indexes rely on
// the numbering fields never changing.
type Node struct {
	// Kind is the node kind.
	Kind NodeKind
	// Label is the element or attribute name; empty for text nodes.
	Label string
	// Data is the character data for text nodes and the value for
	// attribute nodes; empty for elements.
	Data string
	// Parent is nil for the document node.
	Parent *Node
	// Children holds attribute, element and text children in document
	// order (attributes first, in declaration order).
	Children []*Node
	// Pre is the pre-order visit number; Post is the largest pre-order
	// number in n's subtree, so [Pre, Post] is the subtree interval and
	// ancestorship tests are constant-time.
	Pre, Post int
	// Depth is the distance from the document node (document node = 0).
	Depth int

	// value caches the concatenated descendant text (computed at load).
	value string
}

// Value returns the atomized string value of the node: for text and
// attribute nodes their data, for elements the concatenation of all
// descendant text in document order.
func (n *Node) Value() string { return n.value }

// IsAncestorOf reports whether n is a proper ancestor of d.
func (n *Node) IsAncestorOf(d *Node) bool {
	return n.Pre < d.Pre && d.Pre <= n.Post
}

// IsAncestorOrSelf reports whether n is d or a proper ancestor of d.
func (n *Node) IsAncestorOrSelf(d *Node) bool {
	return n == d || n.IsAncestorOf(d)
}

// AncestorAtDepth returns the ancestor-or-self of n at the given depth,
// or nil when d is negative or exceeds n's own depth. This is the O(depth)
// array walk the structural-join machinery uses to materialize the window
// root identified by an MLCA depth.
func (n *Node) AncestorAtDepth(d int) *Node {
	if d < 0 || d > n.Depth {
		return nil
	}
	p := n
	for p.Depth > d {
		p = p.Parent
	}
	return p
}

// LCA returns the lowest common ancestor of a and b (possibly a or b
// itself). Both nodes must come from the same document.
func LCA(a, b *Node) *Node {
	if a == nil || b == nil {
		return nil
	}
	for !a.IsAncestorOrSelf(b) {
		a = a.Parent
		if a == nil {
			return nil
		}
	}
	return a
}

// Document is a parsed XML document together with its indexes.
type Document struct {
	// Name is the logical document name used in doc("name") references.
	Name string
	// Root is the document node; Root.Children[0] is the root element.
	Root *Node

	nodes   []*Node            // all nodes in pre-order
	byLabel map[string][]*Node // element+attribute nodes per label, pre-order
	labels  []string           // sorted distinct labels

	// byValue is the per-label value index used by the query planner
	// for equality pushdown: label → normalized value → nodes.
	byValue map[string]map[string][]*Node
	// anyValue is the document-wide value index used to resolve
	// implicit name tokens: lowercased trimmed value → nodes.
	anyValue map[string][]*Node
}

// NormalizeValue canonicalizes a value for equality indexing: trimmed,
// lowercased, with numeric strings reduced to a canonical spelling so
// "1994" and "1994.0" collide.
func NormalizeValue(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	// ParseFloat allocates its error value and most values are not
	// numbers; reject strings that cannot start a float without calling
	// it. Every float ParseFloat accepts starts with a digit, sign, dot,
	// or inf/nan letter (the input is already lowercased), so the filter
	// never changes the outcome.
	if len(s) == 0 {
		return s
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9':
	case c == '+' || c == '-' || c == '.':
	case c == 'i' || c == 'n':
	default:
		return s
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if f == float64(int64(f)) {
			return strconv.FormatInt(int64(f), 10)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return s
}

// NodesByLabelValue returns the nodes with the given label whose
// normalized atomized value equals the normalized value, in document
// order, or nil when none does. The index is built with the document, so
// a probe is a pure read and a document can be shared between
// concurrent evaluators.
func (d *Document) NodesByLabelValue(label, value string) []*Node {
	idx, ok := d.byValue[label]
	if !ok {
		return nil // absent label: skip normalizing the value
	}
	return idx[NormalizeValue(value)]
}

// RootElement returns the top-level element of the document.
func (d *Document) RootElement() *Node {
	for _, c := range d.Root.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	return nil
}

// Size returns the total number of nodes in the document, including the
// document node, attribute nodes and text nodes.
func (d *Document) Size() int { return len(d.nodes) }

// Nodes returns all nodes in document (pre) order. The returned slice must
// not be modified.
func (d *Document) Nodes() []*Node { return d.nodes }

// Labels returns the sorted set of distinct element and attribute labels
// appearing in the document.
func (d *Document) Labels() []string { return d.labels }

// HasLabel reports whether any element or attribute in the document has the
// given label.
func (d *Document) HasLabel(label string) bool {
	_, ok := d.byLabel[label]
	return ok
}

// NodesByLabel returns all element and attribute nodes with the given
// label, in document order. The returned slice must not be modified.
func (d *Document) NodesByLabel(label string) []*Node { return d.byLabel[label] }

// LabelCount returns how many element/attribute nodes carry the given
// label — the cardinality estimate the query planner selects domain
// strategies with.
func (d *Document) LabelCount(label string) int { return len(d.byLabel[label]) }

// LabelNeighbors returns the label-stream nodes nearest to pre-order
// position pre: the node with the largest Pre strictly below pre and the
// node with the smallest Pre strictly above it (either may be nil). The
// label index is Pre-sorted, so this is one binary search per side; it is
// the index probe behind MLCA depth computation — the deepest common
// ancestor a node forms with any member of a label stream is always
// formed with one of its two document-order neighbors in that stream.
func (d *Document) LabelNeighbors(label string, pre int) (before, after *Node) {
	all := d.byLabel[label]
	// First index with Pre >= pre.
	i := sort.Search(len(all), func(k int) bool { return all[k].Pre >= pre })
	if i > 0 {
		before = all[i-1]
	}
	if i < len(all) && all[i].Pre == pre {
		i++ // skip the probe node itself
	}
	if i < len(all) {
		after = all[i]
	}
	return before, after
}

// Descendants returns the element/attribute descendants of root (or of the
// whole document when root is the document node) with the given label, in
// document order.
func (d *Document) Descendants(root *Node, label string) []*Node {
	all := d.byLabel[label]
	if root == nil || root.Kind == DocumentNode {
		return all
	}
	// all is sorted by Pre; binary search the window inside root's span.
	lo := sort.Search(len(all), func(i int) bool { return all[i].Pre > root.Pre })
	hi := sort.Search(len(all), func(i int) bool { return all[i].Pre > root.Post })
	return all[lo:hi]
}

// NodesWithValue returns element and attribute nodes whose atomized value
// equals (case-insensitively) the given string, in document order. Used to
// resolve implicit name tokens (Definition 11 of the paper). The index is
// built with the document, so a probe is a pure read.
func (d *Document) NodesWithValue(value string) []*Node {
	return d.anyValue[strings.ToLower(strings.TrimSpace(value))]
}

// NodesContainingValue returns element and attribute nodes whose atomized
// value contains the given string, case-insensitively, in document order.
// Used by keyword search and fuzzy implicit-NT resolution.
func (d *Document) NodesContainingValue(value string) []*Node {
	want := strings.ToLower(strings.TrimSpace(value))
	var out []*Node
	for _, n := range d.nodes {
		if n.Kind != ElementNode && n.Kind != AttributeNode {
			continue
		}
		if strings.Contains(strings.ToLower(n.value), want) {
			out = append(out, n)
		}
	}
	return out
}

// finalize numbers the tree, fills caches and builds indexes. It must be
// called exactly once after construction.
func (d *Document) finalize() {
	d.byLabel = make(map[string][]*Node)
	d.nodes = d.nodes[:0]
	pre := 0
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		n.Pre = pre
		n.Depth = depth
		pre++
		d.nodes = append(d.nodes, n)
		// The label index is built in pre-order: Descendants and the
		// value indexes rely on each label's slice being sorted by Pre.
		switch n.Kind {
		case ElementNode, AttributeNode:
			d.byLabel[n.Label] = append(d.byLabel[n.Label], n)
		default:
			// Document and text nodes have no label to index.
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c, depth+1)
		}
		n.Post = pre - 1 // largest pre-order number in n's subtree
	}
	walk(d.Root, 0)
	// Atomized values: leaves first, then containers bottom-up via
	// reverse pre-order (children have larger Pre than parents).
	for _, n := range d.nodes {
		if n.Kind == TextNode || n.Kind == AttributeNode {
			n.value = n.Data
		}
	}
	for i := len(d.nodes) - 1; i >= 0; i-- {
		n := d.nodes[i]
		if n.Kind == TextNode || n.Kind == AttributeNode {
			continue
		}
		var sb strings.Builder
		for _, c := range n.Children {
			if c.Kind == AttributeNode {
				continue
			}
			sb.WriteString(c.value)
		}
		n.value = sb.String()
	}
	d.labels = d.labels[:0]
	for l := range d.byLabel {
		d.labels = append(d.labels, l)
	}
	sort.Strings(d.labels)
	// Value indexes, built in pre-order so every node list is Pre-sorted.
	d.byValue = make(map[string]map[string][]*Node, len(d.byLabel))
	for _, label := range d.labels {
		idx := make(map[string][]*Node)
		for _, n := range d.byLabel[label] {
			key := NormalizeValue(n.value)
			idx[key] = append(idx[key], n)
		}
		d.byValue[label] = idx
	}
	d.anyValue = make(map[string][]*Node)
	for _, n := range d.nodes {
		if n.Kind == ElementNode || n.Kind == AttributeNode {
			key := strings.ToLower(strings.TrimSpace(n.value))
			d.anyValue[key] = append(d.anyValue[key], n)
		}
	}
}
