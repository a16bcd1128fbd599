package xquery

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nalix/internal/cache"
	"nalix/internal/fulltext"
	"nalix/internal/mqf"
	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// Engine evaluates queries against a set of loaded documents. A zero-value
// Engine is not usable; construct one with NewEngine. Configure an Engine
// first — AddDocument calls and option fields are not synchronized — and
// then evaluate: once configuration is done, Query, Eval, EvalTraced and
// EvalSharded are safe for concurrent use, and evaluations run in
// parallel. Each evaluation keeps its mutable state (binding budget,
// environment frames, compiled FLWOR programs, stage trace) in its own
// evaluation context and drops it on return. What evaluations share
// belongs to a loaded document (see docState): its mqf checker, its
// domain memo, guarded by its own lock, and its full-text index, built
// once.
type Engine struct {
	docs    map[string]*docState
	defName string

	// MQFDisabled makes mqf() degenerate to "always true" (pure
	// cross-product joins). Used by the ablation benchmarks only.
	MQFDisabled bool

	// MaxSteps bounds the total number of variable bindings one Eval may
	// explore, turning accidental cross-product blowups into errors
	// instead of hangs. Zero means the default (20 million).
	MaxSteps int

	// DisablePlanner turns off the structural-join optimizations
	// (mqf-driven candidate pruning, equality pushdown and domain
	// caching), leaving plain nested-loop evaluation. Used by the
	// ablation benchmarks to quantify the optimizer.
	DisablePlanner bool

	// ForceStrategy pins the planner's domain strategy: one of
	// StrategyScan, StrategyEquality or StrategyStructural ("" lets the
	// planner choose by estimated cardinality). A forced strategy is
	// applied where its preconditions hold and degrades to the scan
	// elsewhere, so results are identical under every setting — which is
	// exactly what the strategy-parity tests assert.
	ForceStrategy string

	// rootDoc maps each loaded document's root node to its state, so
	// docForNode is one ancestor walk plus a map hit instead of a sorted
	// scan over every document name.
	rootDoc map[*xmldb.Node]*docState

	// planCache, when set via SetPlanCache, memoizes Compile results by
	// query text. Sound without any invalidation: an Expr is a pure
	// function of the text (documents are resolved at evaluation time)
	// and evaluation never mutates the AST.
	planCache *cache.Cache[string, Expr]
}

// docState is one loaded document and everything the engine derives from
// it for evaluations to share: the mqf checker, the domain memo (label
// scans and structural domains, see domainMemo) and the full-text index,
// built on first ftcontains(). AddDocument replaces the whole struct, so
// nothing derived from an older document survives a reload.
type docState struct {
	doc     *xmldb.Document
	checker *mqf.Checker
	memo    *domainMemo
	ftOnce  sync.Once
	ft      *fulltext.Index
}

// ftIndex returns the document's full-text index, building it on first
// use; racing first uses wait for the one build.
func (ds *docState) ftIndex() *fulltext.Index {
	ds.ftOnce.Do(func() { ds.ft = fulltext.NewIndex(ds.doc) })
	return ds.ft
}

// ErrBudget is returned (wrapped) when a query exceeds the binding budget.
var ErrBudget = fmt.Errorf("xquery: query exceeded the evaluation budget (unconstrained cross product?)")

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		docs:    make(map[string]*docState),
		rootDoc: make(map[*xmldb.Node]*docState),
	}
}

// AddDocument registers a document. The first document added becomes the
// default document (referenced by bare `doc` or a leading "//" path).
// Replacing a document under the same name publishes the outgoing
// checker's pending cache statistics first, so short-lived checkers never
// drop batched counts, and drops everything derived from the old
// document with its state.
func (e *Engine) AddDocument(d *xmldb.Document) {
	if old, ok := e.docs[d.Name]; ok {
		delete(e.rootDoc, old.doc.Root)
		old.checker.FlushStats()
	}
	ds := &docState{
		doc:     d,
		checker: mqf.NewChecker(d),
		memo:    &domainMemo{m: make(map[domainKey]Sequence)},
	}
	e.docs[d.Name] = ds
	e.rootDoc[d.Root] = ds
	if e.defName == "" {
		e.defName = d.Name
	}
}

// FlushStats publishes every loaded document checker's pending batched
// mqf cache statistics to the process counters. Call it when abandoning
// an engine (teardown, corpus reload) so short runs report exact counts.
func (e *Engine) FlushStats() {
	//nalixlint:ignore maporder each flush only adds pending counts to monotonic counters, and addition commutes
	for _, ds := range e.docs {
		ds.checker.FlushStats()
	}
}

// Document returns the document with the given name, or the default
// document when name is empty; ok is false when it is not loaded.
func (e *Engine) Document(name string) (*xmldb.Document, bool) {
	ds, ok := e.loaded(name)
	if !ok {
		return nil, false
	}
	return ds.doc, true
}

// loaded returns the state of the named document, or of the default
// document when name is empty.
func (e *Engine) loaded(name string) (*docState, bool) {
	if name == "" {
		name = e.defName
	}
	ds, ok := e.docs[name]
	return ds, ok
}

// DefaultDocument returns the default document, or nil when none is loaded.
func (e *Engine) DefaultDocument() *xmldb.Document {
	d, _ := e.Document("")
	return d
}

// SetPlanCache installs a compiled-plan cache: Compile (and so Query)
// then memoizes parsed ASTs by query text. This is configuration: call
// it before evaluating concurrently.
func (e *Engine) SetPlanCache(c *cache.Cache[string, Expr]) {
	e.planCache = c
}

// Compile parses an XQuery string into its AST, consulting the plan
// cache when one is installed. Parse errors are not cached.
func (e *Engine) Compile(src string) (Expr, error) {
	if e.planCache == nil {
		return Parse(src)
	}
	//nalixlint:ignore genkey a compiled plan is a pure function of the query text, so no generation can stale it
	if expr, ok := e.planCache.Get(src); ok {
		return expr, nil
	}
	expr, err := Parse(src)
	if err != nil {
		return nil, err
	}
	//nalixlint:ignore genkey a compiled plan is a pure function of the query text, so no generation can stale it
	e.planCache.Put(src, expr)
	return expr, nil
}

// Query parses and evaluates an XQuery string, returning the result
// sequence.
func (e *Engine) Query(src string) (Sequence, error) {
	expr, err := e.Compile(src)
	if err != nil {
		return nil, err
	}
	return e.Eval(expr)
}

// Eval evaluates a parsed expression with an empty variable environment.
func (e *Engine) Eval(expr Expr) (Sequence, error) {
	return e.EvalTraced(expr, nil)
}

// EvalTraced is Eval with stage tracing: when sp is non-nil it receives
// pre-ended aggregate child spans for clause reordering ("plan"),
// per-clause domain work ("for"/"let", keyed by variable), and mqf()
// relatedness checking, plus binding-budget attributes. A nil sp makes it
// identical to Eval: nothing is recorded and the clock is never read.
func (e *Engine) EvalTraced(expr Expr, sp *obs.Span) (Sequence, error) {
	return e.evalOne(expr, sp, nil, nil)
}

// evalCtx is the mutable state of one evaluation call. Every env frame
// points at its call's context, so concurrent evaluations on one Engine
// share nothing mutable but the engine's guarded caches.
type evalCtx struct {
	// steps counts the bindings this call explored against limit. The
	// windows of a sharded evaluation share one budget: each adds its
	// count to shared in batches of spendBatch (flushed is the part
	// already added), so the windows do not contend on every spend.
	steps, flushed, limit int64
	shared                *atomic.Int64
	// tr accumulates stage timings; nil when tracing is off.
	tr *evalTrace
	// arena block-allocates the environment frames. Frames never outlive
	// their evaluation (results carry Items, not environments), so a
	// context returned to ctxPool hands its block to the next evaluation.
	arena []env
	used  int
	root  env
	// progs holds the programs this evaluation compiled, one per FLWOR
	// node (see evalFLWOR). Cleared on return, so a pooled context holds
	// no program, domain or node of a finished evaluation.
	progs map[*FLWOR]*program
}

var ctxPool = sync.Pool{New: func() any { return new(evalCtx) }}

// evalOne runs one evaluation in a pooled context. shared, when non-nil,
// is the budget counter of a sharded evaluation's windows, and the
// call's whole count has been added to it on return; win, when non-nil,
// restricts the driving clause of expr — a shardable FLWOR — to a Pre
// range.
func (e *Engine) evalOne(expr Expr, sp *obs.Span, shared *atomic.Int64, win *Range) (Sequence, error) {
	evalsTotal.Add(1)
	c := ctxPool.Get().(*evalCtx)
	c.steps, c.flushed, c.shared = 0, 0, shared
	c.limit = e.stepLimit()
	c.tr = nil
	if sp != nil {
		c.tr = &evalTrace{}
	}
	c.used = 0
	c.root = env{ctx: c}
	var out Sequence
	var err error
	if win != nil {
		out, err = e.evalFLWOR(expr.(*FLWOR), &c.root, win)
	} else {
		out, err = e.eval(expr, &c.root)
	}
	if shared != nil {
		shared.Add(c.steps - c.flushed)
	}
	c.tr.flush(sp)
	if sp != nil {
		sp.SetInt("steps", c.steps)
		sp.SetInt("items", int64(len(out)))
	}
	c.tr, c.shared = nil, nil
	clear(c.progs)
	ctxPool.Put(c)
	return out, err
}

// stepLimit is the binding budget of one evaluation.
func (e *Engine) stepLimit() int64 {
	if e.MaxSteps <= 0 {
		return 20_000_000
	}
	return int64(e.MaxSteps)
}

// spendBatch is how many bindings a window counts locally before adding
// them to its evaluation's shared budget, so each window overshoots an
// exhausted budget by at most this much before it stops.
const spendBatch = 1024

// spend consumes n units of the binding budget.
func (c *evalCtx) spend(n int) error {
	c.steps += int64(n)
	total := c.steps
	if c.shared != nil {
		if c.steps-c.flushed < spendBatch {
			return nil
		}
		total = c.shared.Add(c.steps - c.flushed)
		c.flushed = c.steps
	}
	if total > c.limit {
		return ErrBudget
	}
	return nil
}

// env is a linked-list variable environment. Frames come from the
// evaluation context's arena: they are only valid during the evaluation
// that created them.
type env struct {
	ctx    *evalCtx
	name   string
	value  Sequence
	parent *env
}

const envArenaBlock = 512

func (v *env) bind(name string, value Sequence) *env {
	c := v.ctx
	if c.used == len(c.arena) {
		// A fresh block: frames of the previous block stay reachable
		// through their parent links until the evaluation ends.
		c.arena = make([]env, envArenaBlock)
		c.used = 0
	}
	f := &c.arena[c.used]
	c.used++
	*f = env{ctx: c, name: name, value: value, parent: v}
	return f
}

func (v *env) lookup(name string) (Sequence, bool) {
	for e := v; e != nil; e = e.parent {
		if e.name == name {
			return e.value, true
		}
	}
	return nil, false
}

func (e *Engine) eval(expr Expr, env *env) (Sequence, error) {
	switch x := expr.(type) {
	case *FLWOR:
		return e.evalFLWOR(x, env, nil)
	case *DocRef:
		d, ok := e.Document(x.Name)
		if !ok {
			if x.Name == "" {
				return nil, fmt.Errorf("xquery: no default document loaded")
			}
			return nil, fmt.Errorf("xquery: document %q not loaded", x.Name)
		}
		return Sequence{NodeItem{d.Root}}, nil
	case *VarRef:
		val, ok := env.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("xquery: unbound variable $%s", x.Name)
		}
		return val, nil
	case *StringLit:
		return Sequence{StringItem{x.Value}}, nil
	case *NumberLit:
		return Sequence{NumberItem{x.Value}}, nil
	case *PathExpr:
		return e.evalPath(x, env)
	case *Comparison:
		l, err := e.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Sequence{BoolItem{generalCompare(x.Op, l, r)}}, nil
	case *Logical:
		l, err := e.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		lv := EffectiveBool(l)
		if x.Op == OpAnd && !lv {
			return Sequence{BoolItem{false}}, nil
		}
		if x.Op == OpOr && lv {
			return Sequence{BoolItem{true}}, nil
		}
		r, err := e.eval(x.Right, env)
		if err != nil {
			return nil, err
		}
		return Sequence{BoolItem{EffectiveBool(r)}}, nil
	case *Arith:
		l, err := e.eval(x.Left, env)
		if err != nil {
			return nil, err
		}
		r, err := e.eval(x.Right, env)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 || len(r) == 0 {
			return nil, nil // empty propagates
		}
		fl, okl := numericValue(l[0])
		fr, okr := numericValue(r[0])
		if !okl || !okr {
			return nil, fmt.Errorf("xquery: arithmetic on non-numeric value")
		}
		var out float64
		switch x.Op {
		case OpAdd:
			out = fl + fr
		case OpSub:
			out = fl - fr
		case OpMul:
			out = fl * fr
		case OpDiv:
			if fr == 0 {
				return nil, fmt.Errorf("xquery: division by zero")
			}
			out = fl / fr
		case OpMod:
			if fr == 0 {
				return nil, fmt.Errorf("xquery: modulo by zero")
			}
			out = float64(int64(fl) % int64(fr))
		}
		return Sequence{NumberItem{out}}, nil
	case *FuncCall:
		return e.evalFunc(x, env)
	case *Quantified:
		domain, err := e.eval(x.In, env)
		if err != nil {
			return nil, err
		}
		for _, it := range domain {
			body, err := e.eval(x.Satisfies, env.bind(x.Var, Sequence{it}))
			if err != nil {
				return nil, err
			}
			holds := EffectiveBool(body)
			if x.Every && !holds {
				return Sequence{BoolItem{false}}, nil
			}
			if !x.Every && holds {
				return Sequence{BoolItem{true}}, nil
			}
		}
		return Sequence{BoolItem{x.Every}}, nil
	case *SeqExpr:
		var out Sequence
		for _, item := range x.Items {
			v, err := e.eval(item, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *ElementCtor:
		return e.evalCtor(x, env)
	default:
		return nil, fmt.Errorf("xquery: cannot evaluate %T", expr)
	}
}

// program is the compiled form of one FLWOR expression: the reordered
// clause list, per-clause domain strategies, conjunct readiness levels and
// the mqf conjuncts the plan discharges. It belongs to the evaluation that
// compiled it (see evalFLWOR), so nothing in it is shared or locked.
type program struct {
	g         *FLWOR // clauses in evaluation order; shares Where/OrderBy/Return with the source
	reordered bool
	conjuncts []Expr
	plan      *flworPlan // nil when the planner is disabled
	// readyAt[ci] is the clause index after which conjunct ci's free
	// variables are all bound: 0 = before any clause (outer vars only),
	// len(g.Clauses) = only at tuple completion.
	readyAt []int
	// envDep[i] reports whether clause i's source references variables;
	// a source that does not is evaluated once per evaluation.
	envDep []bool
	// drivingIdx is the evaluation-order index of the driving clause (the
	// original first for-clause, the one an evaluation window restricts),
	// or -1 when the query has none.
	drivingIdx int

	// domains memoizes, by clause index, literal-equality domains and
	// scans of environment-free sources that are not label domains (label
	// scans come from the document's memo). Only label-domain clauses
	// take the equality strategy, so the two kinds never share an index.
	domains map[int]Sequence
}

// compile builds f's program — splitting conjuncts, ordering clauses,
// planning domain strategies and conjunct discharge, and computing
// conjunct readiness — for evaluation under env0. It reads env0 only to
// ask which variables are already bound, never their values.
//
// The where clause is split into conjuncts, each evaluated as soon as its
// free variables are bound — a semi-join-style pushdown that prunes the
// binding search early. mqf() conjuncts additionally drive candidate
// generation: a variable joined by mqf to an already-bound variable
// ranges only over the structurally related nodes (see
// mqf.Checker.RelatedCandidates), not the whole label domain. This
// mirrors the structural join optimizations of native XML engines like
// the paper's Timber.
func (e *Engine) compile(f *FLWOR, env0 *env) *program {
	conjuncts := splitConjuncts(f.Where)
	p := &program{g: f, conjuncts: conjuncts, drivingIdx: -1, domains: make(map[int]Sequence)}
	if !e.DisablePlanner {
		// Clause reordering: bind selective variables first. evalFLWOR
		// restores written-clause order from the for-clause bindings.
		perm := orderClauses(e, f, env0, conjuncts)
		for i, pi := range perm {
			if pi != i {
				p.reordered = true
			}
		}
		if p.reordered {
			clauses := make([]Clause, len(perm))
			for i, pi := range perm {
				clauses[i] = f.Clauses[pi]
			}
			p.g = &FLWOR{Clauses: clauses, Where: f.Where, OrderBy: f.OrderBy, Return: f.Return}
		}
		p.plan = e.planDomains(p.g, env0, conjuncts)
	}
	clauses := p.g.Clauses
	p.readyAt = make([]int, len(conjuncts))
	for ci, c := range conjuncts {
		level := 0
		for _, v := range sortedVars(freeVars(c)) {
			if _, ok := env0.lookup(v); ok {
				continue
			}
			found := false
			for i, cl := range clauses {
				if cl.Var == v {
					if i+1 > level {
						level = i + 1
					}
					found = true
					break
				}
			}
			if !found {
				level = len(clauses) // unbound: surfaces an error later
			}
		}
		p.readyAt[ci] = level
	}
	p.envDep = make([]bool, len(clauses))
	for i, cl := range clauses {
		p.envDep[i] = len(freeVars(cl.Source)) > 0
	}
	if v, _, ok := e.drivingClause(f); ok {
		for i, cl := range clauses {
			if cl.Kind == ForClause && cl.Var == v {
				p.drivingIdx = i
				break
			}
		}
	}
	return p
}

// evalCond evaluates an expression for its effective boolean value
// without boxing the result — the conjunct loop calls it once per ready
// conjunct per branch, so the Sequence{BoolItem{...}} the generic eval
// would allocate is pure garbage. Comparisons against literals also skip
// the literal side's sequence allocation.
func (e *Engine) evalCond(x Expr, cur *env) (bool, error) {
	switch c := x.(type) {
	case *Comparison:
		if lit, ok := literalItem(c.Right); ok {
			l, err := e.eval(c.Left, cur)
			if err != nil {
				return false, err
			}
			for _, a := range l {
				if compareItems(c.Op, a, lit) {
					return true, nil
				}
			}
			return false, nil
		}
		if lit, ok := literalItem(c.Left); ok {
			r, err := e.eval(c.Right, cur)
			if err != nil {
				return false, err
			}
			for _, b := range r {
				if compareItems(c.Op, lit, b) {
					return true, nil
				}
			}
			return false, nil
		}
		l, err := e.eval(c.Left, cur)
		if err != nil {
			return false, err
		}
		r, err := e.eval(c.Right, cur)
		if err != nil {
			return false, err
		}
		return generalCompare(c.Op, l, r), nil
	case *Logical:
		lv, err := e.evalCond(c.Left, cur)
		if err != nil {
			return false, err
		}
		if c.Op == OpAnd && !lv {
			return false, nil
		}
		if c.Op == OpOr && lv {
			return true, nil
		}
		return e.evalCond(c.Right, cur)
	default:
		w, err := e.eval(x, cur)
		if err != nil {
			return false, err
		}
		return EffectiveBool(w), nil
	}
}

// literalItem converts a literal AST node to its item, bypassing the
// sequence allocation of the generic eval.
func literalItem(x Expr) (Item, bool) {
	switch v := x.(type) {
	case *StringLit:
		return StringItem{v.Value}, true
	case *NumberLit:
		return NumberItem{v.Value}, true
	}
	return nil, false
}

// evalFLWOR evaluates f under env0. win, when non-nil, restricts the
// driving clause's bindings to a Pre range: the caller evaluates one
// window of a sharded evaluation (see EvalSharded).
//
// f's program is compiled on its first evaluation in this call and
// reused for the rest of it — a nested FLWOR runs once per outer binding.
// That is sound because compile reads env0 only to ask which variables
// are already bound, and f's position in the query fixes that set: the
// outer environment, plus the clauses bound before the let, conjunct,
// order key or return that holds f. A shard window has its own context
// and compiles its own program.
func (e *Engine) evalFLWOR(f *FLWOR, env0 *env, win *Range) (Sequence, error) {
	type tuple struct {
		env     *env
		keys    []Item
		docKeys []int
	}
	var tuples []tuple

	c := env0.ctx
	pt0 := c.tr.clock()
	prog := c.progs[f]
	if prog == nil {
		prog = e.compile(f, env0)
		if c.progs == nil {
			c.progs = make(map[*FLWOR]*program)
		}
		c.progs[f] = prog
		c.tr.compiled()
	}
	clauses := prog.g.Clauses
	conjuncts, plan, reordered := prog.conjuncts, prog.plan, prog.reordered
	if plan != nil && plan.dischargedCount > 0 {
		mqfDischarged.Add(plan.dischargedCount)
		c.tr.discharge(plan.dischargedCount)
	}
	c.tr.plan(pt0)
	readyAt := prog.readyAt

	var expand func(i int, cur *env) error
	expand = func(i int, cur *env) error {
		// Evaluate every conjunct that becomes ready at this level,
		// skipping the ones the plan discharged: their truth is already
		// guaranteed by structural candidate generation.
		for ci, c := range conjuncts {
			if readyAt[ci] != i {
				continue
			}
			if plan != nil && plan.discharged[ci] {
				continue
			}
			w, err := e.evalCond(c, cur)
			if err != nil {
				return err
			}
			if !w {
				return nil // prune this branch
			}
		}
		if i == len(clauses) {
			t := tuple{env: cur}
			for _, spec := range f.OrderBy {
				k, err := e.eval(spec.Key, cur)
				if err != nil {
					return err
				}
				var key Item = StringItem{""}
				if len(k) > 0 {
					key = k[0]
				}
				t.keys = append(t.keys, key)
			}
			if reordered {
				// Written-order restoration keys: the original clause
				// order's bindings.
				t.docKeys = make([]int, 0, len(f.Clauses))
				for _, cl := range f.Clauses {
					if cl.Kind != ForClause {
						continue
					}
					pre := 0
					if val, ok := cur.lookup(cl.Var); ok && len(val) == 1 {
						if ni, okn := val[0].(NodeItem); okn {
							pre = ni.Node.Pre
						}
					}
					t.docKeys = append(t.docKeys, pre)
				}
			}
			tuples = append(tuples, t)
			return nil
		}
		cl := clauses[i]
		if cl.Kind == LetClause {
			lt0 := c.tr.clock()
			src, err := e.eval(cl.Source, cur)
			c.tr.clause("let", cl.Var, len(src), lt0)
			if err != nil {
				return err
			}
			return expand(i+1, cur.bind(cl.Var, src))
		}
		ft0 := c.tr.clock()
		src, err := e.forDomain(prog, i, cur)
		if win != nil && i == prog.drivingIdx {
			src = windowSequence(src, win.Lo, win.Hi)
		}
		c.tr.clause("for", cl.Var, len(src), ft0)
		if err != nil {
			return err
		}
		if err := c.spend(len(src)); err != nil {
			return err
		}
		for j := range src {
			// Bind a one-item window into the domain slice rather than a
			// fresh one-item sequence: bindings are read-only, so sharing
			// the backing array is safe and saves an allocation per
			// binding.
			if err := expand(i+1, cur.bind(cl.Var, src[j:j+1:j+1])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(0, env0); err != nil {
		return nil, err
	}

	// Restore the written clauses' enumeration order first, so tuples
	// with equal order-by keys keep it under every plan.
	if reordered {
		sort.SliceStable(tuples, func(a, b int) bool {
			ka, kb := tuples[a].docKeys, tuples[b].docKeys
			for i := 0; i < len(ka) && i < len(kb); i++ {
				if ka[i] != kb[i] {
					return ka[i] < kb[i]
				}
			}
			return false
		})
	}
	if len(f.OrderBy) > 0 {
		sort.SliceStable(tuples, func(a, b int) bool {
			for k, spec := range f.OrderBy {
				ka, kb := tuples[a].keys[k], tuples[b].keys[k]
				var less, eq bool
				fa, oka := numericValue(ka)
				fb, okb := numericValue(kb)
				if oka && okb {
					less, eq = fa < fb, fa == fb
				} else {
					sa, sb := AtomizeItem(ka), AtomizeItem(kb)
					less, eq = sa < sb, sa == sb
				}
				if eq {
					continue
				}
				if spec.Descending {
					return !less
				}
				return less
			}
			return false
		})
	}

	var out Sequence
	for _, t := range tuples {
		v, err := e.eval(f.Return, t.env)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (e *Engine) evalPath(p *PathExpr, env *env) (Sequence, error) {
	var root Expr = p.Root
	if root == nil {
		root = &DocRef{}
	}
	cur, err := e.eval(root, env)
	if err != nil {
		return nil, err
	}
	for _, st := range p.Steps {
		var next []*xmldb.Node
		seen := make(map[*xmldb.Node]bool)
		for _, it := range cur {
			ni, ok := it.(NodeItem)
			if !ok {
				return nil, fmt.Errorf("xquery: path step /%s applied to atomic value", st.Name)
			}
			n := ni.Node
			if st.Descendant {
				ds := e.docForNode(n)
				if ds == nil {
					// Constructed tree: walk manually.
					collectDescendants(n, st.Name, &next, seen)
					continue
				}
				if st.Name == "*" {
					collectDescendants(n, st.Name, &next, seen)
					continue
				}
				for _, d := range ds.doc.Descendants(n, st.Name) {
					if !seen[d] {
						seen[d] = true
						next = append(next, d)
					}
				}
				if n.Label == st.Name && !seen[n] {
					// descendant-or-self semantics
					seen[n] = true
					next = append(next, n)
				}
			} else {
				for _, c := range n.Children {
					if c.Kind == xmldb.TextNode {
						continue
					}
					if (st.Name == "*" || c.Label == st.Name) && !seen[c] {
						seen[c] = true
						next = append(next, c)
					}
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Pre < next[j].Pre })
		cur = nodeSequence(next)
	}
	return cur, nil
}

// docForNode finds the loaded document a node belongs to (nil for
// constructed trees): one walk to the root, one map probe. This sits on
// the hot path — every mqf() argument and descendant step resolves its
// document here — so it must not allocate.
func (e *Engine) docForNode(n *xmldb.Node) *docState {
	root := n
	for root.Parent != nil {
		root = root.Parent
	}
	return e.rootDoc[root]
}

func collectDescendants(n *xmldb.Node, name string, out *[]*xmldb.Node, seen map[*xmldb.Node]bool) {
	var walk func(m *xmldb.Node)
	walk = func(m *xmldb.Node) {
		if m.Kind != xmldb.TextNode && m.Kind != xmldb.DocumentNode &&
			(name == "*" || m.Label == name) && !seen[m] {
			seen[m] = true
			*out = append(*out, m)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	// descendant-or-self: n itself was included by walk when it matches.
}

func (e *Engine) evalCtor(c *ElementCtor, env *env) (Sequence, error) {
	b := xmldb.NewBuilder("")
	if err := e.buildCtor(b, c, env); err != nil {
		return nil, err
	}
	doc := b.Document()
	el := doc.RootElement()
	return Sequence{NodeItem{el}}, nil
}

func (e *Engine) buildCtor(b *xmldb.Builder, c *ElementCtor, env *env) error {
	var attrs []string
	for _, a := range c.Attrs {
		v, err := e.eval(a.Value, env)
		if err != nil {
			return err
		}
		var parts []string
		for _, it := range v {
			parts = append(parts, strings.TrimSpace(AtomizeItem(it)))
		}
		attrs = append(attrs, a.Name, strings.Join(parts, " "))
	}
	b.Open(c.Name, attrs...)
	for _, ce := range c.Content {
		if lit, ok := ce.(*StringLit); ok {
			b.Text(lit.Value)
			continue
		}
		if sub, ok := ce.(*ElementCtor); ok {
			if err := e.buildCtor(b, sub, env); err != nil {
				return err
			}
			continue
		}
		v, err := e.eval(ce, env)
		if err != nil {
			return err
		}
		for _, it := range v {
			switch iv := it.(type) {
			case NodeItem:
				copyInto(b, iv.Node)
			default:
				b.Text(AtomizeItem(it))
			}
		}
	}
	b.Close()
	return nil
}

// copyInto deep-copies node n (as element content) into the builder.
func copyInto(b *xmldb.Builder, n *xmldb.Node) {
	switch n.Kind {
	case xmldb.TextNode:
		b.Text(n.Data)
	case xmldb.AttributeNode:
		// An attribute copied as content becomes an element, keeping
		// results well-formed (same convention as xmldb.Serialize).
		b.Leaf(n.Label, n.Data)
	case xmldb.ElementNode:
		var attrs []string
		for _, c := range n.Children {
			if c.Kind == xmldb.AttributeNode {
				attrs = append(attrs, c.Label, c.Data)
			}
		}
		b.Open(n.Label, attrs...)
		for _, c := range n.Children {
			if c.Kind != xmldb.AttributeNode {
				copyInto(b, c)
			}
		}
		b.Close()
	case xmldb.DocumentNode:
		for _, c := range n.Children {
			copyInto(b, c)
		}
	}
}
