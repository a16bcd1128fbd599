// Package xquery implements the Schema-Free XQuery subset that NaLIX
// translates natural language into: FLWOR expressions with nested
// sub-queries, general comparisons, quantifiers, aggregate functions,
// element constructors, and the mqf() meaningful-relatedness predicate
// (evaluated through internal/mqf). The package provides a lexer, a
// recursive-descent parser, a canonical printer and a tree-walking
// evaluator over documents stored in internal/xmldb.
package xquery

import "fmt"

// Expr is the interface implemented by every AST node.
type Expr interface {
	exprNode()
}

// FLWOR is a for/let/where/order by/return expression. Clauses holds the
// for and let clauses in source order, since XQuery allows them to
// interleave.
type FLWOR struct {
	Clauses []Clause
	Where   Expr // nil when absent
	OrderBy []OrderSpec
	Return  Expr
}

// Clause is a single for- or let-binding.
type Clause struct {
	// Kind is ForClause or LetClause.
	Kind ClauseKind
	// Var is the variable name without the leading '$'.
	Var string
	// Source is the binding sequence (for) or value (let).
	Source Expr
}

// ClauseKind discriminates for- from let-clauses.
type ClauseKind uint8

// The clause kinds.
const (
	ForClause ClauseKind = iota
	LetClause
)

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// PathExpr is a path starting from a root expression, e.g.
// doc("bib.xml")//book/title. A nil Root means the engine's default
// document (the paper writes this as doc//label in its mapping rules).
type PathExpr struct {
	Root  Expr
	Steps []Step
}

// Step is one axis step of a path.
type Step struct {
	// Descendant selects the descendant-or-self axis ("//") when true,
	// the child axis ("/") otherwise.
	Descendant bool
	// Name is the label to match; "*" matches any element/attribute.
	Name string
}

// DocRef refers to a loaded document: doc("name"), or the bare identifier
// `doc` for the default document.
type DocRef struct {
	// Name is empty for the default document.
	Name string
}

// VarRef references a bound variable (without the '$').
type VarRef struct {
	Name string
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Value float64
}

// Comparison is a general (existentially quantified) comparison.
type Comparison struct {
	Op          CmpOp
	Left, Right Expr
}

// CmpOp is a comparison operator.
type CmpOp uint8

// The comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the XQuery spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Logical is a binary boolean expression ("and" / "or").
type Logical struct {
	Op          LogicOp
	Left, Right Expr
}

// LogicOp is a boolean connective.
type LogicOp uint8

// The boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

// String returns the XQuery spelling of the connective.
func (op LogicOp) String() string {
	if op == OpAnd {
		return "and"
	}
	return "or"
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op          ArithOp
	Left, Right Expr
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// The arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String returns the XQuery spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	default:
		return "mod"
	}
}

// FuncCall is a call of a built-in function (count, min, max, sum, avg,
// not, mqf, contains, starts-with, ends-with, name, string, number, data,
// distinct-values, empty, exists, concat, position-free subset).
type FuncCall struct {
	Name string
	Args []Expr
}

// Quantified is "some $v in E satisfies P" / "every $v in E satisfies P".
type Quantified struct {
	Every     bool
	Var       string
	In        Expr
	Satisfies Expr
}

// SeqExpr is a parenthesized or brace-enclosed expression list; it
// evaluates to the concatenation of its parts.
type SeqExpr struct {
	Items []Expr
}

// ElementCtor constructs a new element with the given name. Attrs are
// constructed attributes; Content items are either literal text
// (StringLit) or embedded expressions.
type ElementCtor struct {
	Name    string
	Attrs   []AttrCtor
	Content []Expr
}

// AttrCtor constructs one attribute of an ElementCtor.
type AttrCtor struct {
	Name  string
	Value Expr // concatenated atomized value
}

func (*FLWOR) exprNode()       {}
func (*PathExpr) exprNode()    {}
func (*DocRef) exprNode()      {}
func (*VarRef) exprNode()      {}
func (*StringLit) exprNode()   {}
func (*NumberLit) exprNode()   {}
func (*Comparison) exprNode()  {}
func (*Logical) exprNode()     {}
func (*Arith) exprNode()       {}
func (*FuncCall) exprNode()    {}
func (*Quantified) exprNode()  {}
func (*SeqExpr) exprNode()     {}
func (*ElementCtor) exprNode() {}
