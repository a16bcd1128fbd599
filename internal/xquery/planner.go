package xquery

import (
	"sort"
	"sync"

	"nalix/internal/mqf"
	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// Per-strategy domain counters: one event per for-clause binding-sequence
// production, keyed by the strategy that produced it, plus the number of
// mqf conjuncts statically discharged by structural candidate generation.
// Together they answer "is the planner actually taking the fast paths"
// from /metrics without tracing.
var (
	domainEquality   = obs.NewCounter("xquery_domain_equality")
	domainStructural = obs.NewCounter("xquery_domain_structural")
	domainScan       = obs.NewCounter("xquery_domain_scan")
	mqfDischarged    = obs.NewCounter("xquery_mqf_discharged")
)

// domainStrategy is the planner's choice of how to produce a for-clause
// binding domain.
type domainStrategy uint8

const (
	// stratScan evaluates the for-source as written (full label scan for
	// label domains, generic evaluation otherwise).
	stratScan domainStrategy = iota
	// stratEquality answers the domain from the per-label value index,
	// driven by an equality conjunct against a literal or bound variable.
	stratEquality
	// stratStructural prunes the domain to the nodes structurally related
	// (mqf) to already-bound partner variables, via
	// mqf.Checker.RelatedCandidates.
	stratStructural
)

// Strategy names accepted by Engine.ForceStrategy and reported by
// ExplainPlan.
const (
	StrategyScan       = "scan"
	StrategyEquality   = "equality"
	StrategyStructural = "structural"
)

func (s domainStrategy) String() string {
	switch s {
	case stratEquality:
		return StrategyEquality
	case stratStructural:
		return StrategyStructural
	default:
		return StrategyScan
	}
}

// scanCardinalityCutoff is the label-domain size below which the planner
// keeps the plain scan even when a structural join is available: pruning
// a handful of nodes costs more in index probes than the scan it saves.
const scanCardinalityCutoff = 8

// clausePlan is the planner's static decision for one FLWOR clause.
type clausePlan struct {
	strategy domainStrategy
	// ds and label are set when the clause ranges over a label domain
	// (doc//label); nil ds means the generic scan path.
	ds    *docState
	label string
	// labelID is resolved once here so the per-tuple paths probe
	// integer-keyed memos only — no string hashing in the binding loops.
	// It is -1 when the label does not occur in the document.
	labelID int32
	// partnerVars are the variables whose bound nodes prune this clause's
	// domain under the structural strategy: the union of the other
	// arguments of every mqf conjunct mentioning the clause variable.
	// Candidates are intersected across all of them.
	partnerVars []string
	// guaranteed reports that at least one partner is itself an
	// earlier for-clause over a label domain of the same document — such
	// a partner always resolves to a single same-document node at
	// runtime, so the structural path cannot fall back to a scan.
	// Conjunct discharge relies on this.
	guaranteed bool
}

// flworPlan is the planner's static decision for one FLWOR evaluation:
// a strategy per clause plus the set of where-conjuncts whose truth is
// already guaranteed by structural candidate generation.
type flworPlan struct {
	clauses []clausePlan
	// discharged[ci] marks mqf conjuncts that never need per-tuple
	// evaluation: every argument after the first (in clause-binding
	// order) ranges over a structurally pruned domain filtered against
	// all earlier arguments, so every pair the conjunct would check has
	// already been verified during candidate generation.
	discharged []bool
	// dischargedCount is the number of true entries in discharged.
	dischargedCount int64
}

// planDomains computes the domain strategy for every clause of f (already
// in its final evaluation order) and the set of dischargeable mqf
// conjuncts. It is purely static: no domains are evaluated.
func (e *Engine) planDomains(f *FLWOR, env0 *env, conjuncts []Expr) *flworPlan {
	plan := &flworPlan{
		clauses:    make([]clausePlan, len(f.Clauses)),
		discharged: make([]bool, len(conjuncts)),
	}
	// clauseOf maps every clause-bound variable (for and let) to its
	// clause index. A variable bound twice makes static reasoning about
	// "which binding does a conjunct see" unsafe, so the planner then
	// stays on the legacy dynamic paths.
	clauseOf := make(map[string]int, len(f.Clauses))
	dup := false
	for i, cl := range f.Clauses {
		if _, ok := clauseOf[cl.Var]; ok {
			dup = true
		}
		clauseOf[cl.Var] = i
	}
	for i, cl := range f.Clauses {
		cp := &plan.clauses[i]
		if cl.Kind != ForClause {
			continue
		}
		ds, label, ok := e.labelDomain(cl.Source)
		if !ok {
			continue
		}
		cp.ds, cp.label = ds, label
		cp.labelID = ds.checker.LabelID(label)
		if !e.MQFDisabled && !dup {
			seen := map[string]bool{}
			for _, c := range conjuncts {
				call, isCall := c.(*FuncCall)
				if !isCall || call.Name != "mqf" || !mentionsVar(call, cl.Var) {
					continue
				}
				for _, a := range call.Args {
					v, okv := a.(*VarRef)
					if !okv || v.Name == cl.Var || seen[v.Name] {
						continue
					}
					if j, isClause := clauseOf[v.Name]; isClause {
						if j >= i {
							// Binds later in this FLWOR: at this clause's
							// binding time a lookup could only see an outer
							// shadow, and pruning by that value would be
							// wrong. Skip it.
							continue
						}
						jc := f.Clauses[j]
						if jc.Kind == ForClause {
							if d2, _, ok2 := e.labelDomain(jc.Source); ok2 && d2 == ds {
								cp.guaranteed = true
							}
						}
					}
					seen[v.Name] = true
					cp.partnerVars = append(cp.partnerVars, v.Name)
				}
			}
		}
		hasEq := hasEqualityConjunct(conjuncts, cl.Var)
		switch {
		case e.ForceStrategy == StrategyScan:
			cp.strategy = stratScan
			cp.partnerVars = nil
		case e.ForceStrategy == StrategyEquality:
			cp.strategy = stratScan
			if hasEq {
				cp.strategy = stratEquality
			}
			cp.partnerVars = nil
		case e.ForceStrategy == StrategyStructural:
			cp.strategy = stratScan
			if len(cp.partnerVars) > 0 {
				cp.strategy = stratStructural
			}
		case hasEq:
			cp.strategy = stratEquality
		case len(cp.partnerVars) > 0 && ds.doc.LabelCount(label) > scanCardinalityCutoff:
			cp.strategy = stratStructural
		default:
			cp.strategy = stratScan
		}
	}
	if e.MQFDisabled || dup {
		return plan
	}
	// Conjunct discharge: mqf($a, $b, ...) needs no per-tuple evaluation
	// when every argument is a for-variable over a label domain of one
	// shared document and every argument after the first (in binding
	// order) is produced by the structural strategy — candidate
	// generation then filters each binding against all earlier arguments,
	// so every pair the conjunct would test is verified inductively
	// before the tuple exists.
	for ci, c := range conjuncts {
		call, isCall := c.(*FuncCall)
		if !isCall || call.Name != "mqf" {
			continue
		}
		argIdx := make([]int, 0, len(call.Args))
		seen := map[string]bool{}
		var ds *docState
		okAll := true
		for _, a := range call.Args {
			v, isVar := a.(*VarRef)
			if !isVar {
				okAll = false
				break
			}
			if seen[v.Name] {
				continue
			}
			seen[v.Name] = true
			if _, shadowed := env0.lookup(v.Name); shadowed {
				// Also bound outside the FLWOR: conjunct readiness could
				// see the outer value, so stay on per-tuple evaluation.
				okAll = false
				break
			}
			j, isClause := clauseOf[v.Name]
			if !isClause || f.Clauses[j].Kind != ForClause {
				okAll = false
				break
			}
			cpj := &plan.clauses[j]
			if cpj.ds == nil {
				okAll = false
				break
			}
			if ds == nil {
				ds = cpj.ds
			} else if ds != cpj.ds {
				okAll = false
				break
			}
			argIdx = append(argIdx, j)
		}
		if !okAll || len(argIdx) == 0 {
			continue
		}
		sort.Ints(argIdx)
		for k := 1; k < len(argIdx); k++ {
			cpk := &plan.clauses[argIdx[k]]
			if cpk.strategy != stratStructural || !cpk.guaranteed {
				okAll = false
				break
			}
		}
		if okAll {
			plan.discharged[ci] = true
			plan.dischargedCount++
		}
	}
	return plan
}

// PlanInfo describes the planner's decision for one for-clause.
type PlanInfo struct {
	Var      string
	Label    string   // label-domain label; empty for generic sources
	Strategy string   // "scan", "equality" or "structural"
	Partners []string // variables whose bindings prune this domain
	// Cardinality is the label-index size the strategy choice was based
	// on (0 for generic sources).
	Cardinality int
}

// PlanReport is the static evaluation plan for a FLWOR expression: the
// clause order and per-clause domain strategies the evaluator will use,
// plus how many mqf conjuncts are discharged by candidate generation.
type PlanReport struct {
	Reordered  bool
	Clauses    []PlanInfo
	MQF        int // mqf conjuncts in the where clause
	Discharged int // of which this many need no per-tuple evaluation
}

// ExplainPlan reports the plan the evaluator would follow for expr
// without evaluating it: nil when expr is not a FLWOR. It compiles expr
// as an evaluation does, so it respects DisablePlanner and ForceStrategy
// and prints exactly what an Eval of the same expression would do.
func (e *Engine) ExplainPlan(expr Expr) *PlanReport {
	f, ok := expr.(*FLWOR)
	if !ok {
		return nil
	}
	prog := e.compile(f, &env{})
	rep := &PlanReport{Reordered: prog.reordered}
	for i, cl := range prog.g.Clauses {
		if cl.Kind != ForClause {
			continue
		}
		pi := PlanInfo{Var: cl.Var, Strategy: StrategyScan}
		if prog.plan != nil {
			cp := &prog.plan.clauses[i]
			pi.Strategy = cp.strategy.String()
			pi.Label = cp.label
			pi.Partners = cp.partnerVars
			if cp.ds != nil {
				pi.Cardinality = cp.ds.doc.LabelCount(cp.label)
			}
		}
		rep.Clauses = append(rep.Clauses, pi)
	}
	for ci, c := range prog.conjuncts {
		if call, isCall := c.(*FuncCall); isCall && call.Name == "mqf" {
			rep.MQF++
			if prog.plan != nil && prog.plan.discharged[ci] {
				rep.Discharged++
			}
		}
	}
	return rep
}

// mentionsVar reports whether any argument of the call is a reference to
// the given variable.
func mentionsVar(call *FuncCall, varName string) bool {
	for _, a := range call.Args {
		if v, ok := a.(*VarRef); ok && v.Name == varName {
			return true
		}
	}
	return false
}

// hasEqualityConjunct reports whether some conjunct equates varName with
// a literal or another variable — the static trigger for the equality
// pushdown strategy (the runtime lookup may still fail for an unbound or
// non-singleton comparand, in which case the clause falls back).
func hasEqualityConjunct(conjuncts []Expr, varName string) bool {
	for _, c := range conjuncts {
		cmp, ok := c.(*Comparison)
		if !ok || cmp.Op != OpEq {
			continue
		}
		var other Expr
		if v, isVar := cmp.Left.(*VarRef); isVar && v.Name == varName {
			other = cmp.Right
		} else if v, isVar := cmp.Right.(*VarRef); isVar && v.Name == varName {
			other = cmp.Left
		} else {
			continue
		}
		switch other.(type) {
		case *StringLit, *NumberLit, *VarRef:
			return true
		}
	}
	return false
}

// splitConjuncts flattens a where expression into and-connected conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*Logical); ok && l.Op == OpAnd {
		return append(splitConjuncts(l.Left), splitConjuncts(l.Right)...)
	}
	return []Expr{e}
}

// freeVars returns the variable names an expression references that are
// not bound within the expression itself.
func freeVars(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectFree(e, map[string]bool{}, out)
	return out
}

// sortedVars lists a variable set in lexical order, so every walk over
// free variables visits them deterministically.
func sortedVars(set map[string]bool) []string {
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(e Expr, bound map[string]bool, out map[string]bool) {
	switch x := e.(type) {
	case nil:
		return
	case *VarRef:
		if !bound[x.Name] {
			out[x.Name] = true
		}
	case *FLWOR:
		inner := copyBound(bound)
		for _, cl := range x.Clauses {
			collectFree(cl.Source, inner, out)
			inner[cl.Var] = true
		}
		collectFree(x.Where, inner, out)
		for _, o := range x.OrderBy {
			collectFree(o.Key, inner, out)
		}
		collectFree(x.Return, inner, out)
	case *Quantified:
		collectFree(x.In, bound, out)
		inner := copyBound(bound)
		inner[x.Var] = true
		collectFree(x.Satisfies, inner, out)
	case *PathExpr:
		collectFree(x.Root, bound, out)
	case *Comparison:
		collectFree(x.Left, bound, out)
		collectFree(x.Right, bound, out)
	case *Logical:
		collectFree(x.Left, bound, out)
		collectFree(x.Right, bound, out)
	case *Arith:
		collectFree(x.Left, bound, out)
		collectFree(x.Right, bound, out)
	case *FuncCall:
		for _, a := range x.Args {
			collectFree(a, bound, out)
		}
	case *SeqExpr:
		for _, it := range x.Items {
			collectFree(it, bound, out)
		}
	case *ElementCtor:
		for _, a := range x.Attrs {
			collectFree(a.Value, bound, out)
		}
		for _, c := range x.Content {
			collectFree(c, bound, out)
		}
	}
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// labelDomain recognizes a for-source of the shape doc//label (optionally
// doc("name")//label) and returns the document's state and the label.
func (e *Engine) labelDomain(src Expr) (*docState, string, bool) {
	p, ok := src.(*PathExpr)
	if !ok || len(p.Steps) != 1 || !p.Steps[0].Descendant || p.Steps[0].Name == "*" {
		return nil, "", false
	}
	root := p.Root
	if root == nil {
		root = &DocRef{}
	}
	d, ok := root.(*DocRef)
	if !ok {
		return nil, "", false
	}
	ds, ok := e.loaded(d.Name)
	if !ok {
		return nil, "", false
	}
	return ds, p.Steps[0].Name, true
}

// equalityCandidates inspects the conjuncts for an equality between the
// variable being bound and a literal or an already-bound variable, and
// answers the binding domain from the document's value index when one is
// found. The equality conjunct itself is still evaluated afterwards, so
// this is purely a (sound and complete) domain restriction: the index
// returns exactly the label nodes with the matching normalized value.
// literal reports whether the comparand was a literal — such a domain is
// the same for every tuple and every evaluation, so the caller may
// memoize it.
func (e *Engine) equalityCandidates(doc *xmldb.Document, label, varName string, cur *env, conjuncts []Expr) (out Sequence, literal, ok bool) {
	for _, c := range conjuncts {
		cmp, isCmp := c.(*Comparison)
		if !isCmp || cmp.Op != OpEq {
			continue
		}
		var other Expr
		if v, isVar := cmp.Left.(*VarRef); isVar && v.Name == varName {
			other = cmp.Right
		} else if v, isVar := cmp.Right.(*VarRef); isVar && v.Name == varName {
			other = cmp.Left
		} else {
			continue
		}
		var value string
		lit := true
		switch o := other.(type) {
		case *StringLit:
			value = o.Value
		case *NumberLit:
			value = FormatNumber(o.Value)
		case *VarRef:
			val, bound := cur.lookup(o.Name)
			if !bound || len(val) != 1 {
				continue
			}
			value = AtomizeItem(val[0])
			lit = false
		default:
			continue
		}
		return nodeSequence(doc.NodesByLabelValue(label, value)), lit, true
	}
	return nil, false, false
}

// orderClauses computes an evaluation order for the FLWOR clauses: a
// permutation that binds selective variables first (literal equality →
// connected to an already-bound variable via mqf or equality → the rest),
// while never moving a clause before the clauses that bind its free
// variables. Result order is unaffected because the tuple stream is only
// consumed by where/return evaluation, except that for-clause order
// determines tuple enumeration order — so reordering is applied only when
// the FLWOR has no order-sensitive result (a single for-clause keeps its
// position, and clauses appear in bound-dependency order).
func orderClauses(e *Engine, f *FLWOR, env0 *env, conjuncts []Expr) []int {
	n := len(f.Clauses)
	perm := make([]int, 0, n)
	// Reorder only when every for-clause ranges over a label domain
	// (node bindings): document-order restoration keys exist only for
	// nodes, so atomic domains (distinct-values, literals) must keep
	// their author-written enumeration order.
	identity := func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	for _, cl := range f.Clauses {
		if cl.Kind != ForClause {
			continue
		}
		if _, _, ok := e.labelDomain(cl.Source); !ok {
			return identity()
		}
	}
	used := make([]bool, n)
	bound := map[string]bool{}
	free := make([]map[string]bool, n)
	for i, cl := range f.Clauses {
		free[i] = freeVars(cl.Source)
	}
	isBound := func(v string) bool {
		if bound[v] {
			return true
		}
		_, ok := env0.lookup(v)
		return ok
	}
	admissible := func(i int) bool {
		for _, v := range sortedVars(free[i]) {
			if !isBound(v) {
				return false
			}
		}
		return true
	}
	hasLiteralEq := func(varName string) bool {
		for _, c := range conjuncts {
			cmp, ok := c.(*Comparison)
			if !ok || cmp.Op != OpEq {
				continue
			}
			l, lv := cmp.Left.(*VarRef)
			r, rv := cmp.Right.(*VarRef)
			switch {
			case lv && l.Name == varName && isLiteral(cmp.Right):
				return true
			case rv && r.Name == varName && isLiteral(cmp.Left):
				return true
			}
		}
		return false
	}
	connected := func(varName string) bool {
		for _, c := range conjuncts {
			switch x := c.(type) {
			case *FuncCall:
				if x.Name != "mqf" {
					continue
				}
				mentions, anyBound := false, false
				for _, a := range x.Args {
					if v, ok := a.(*VarRef); ok {
						if v.Name == varName {
							mentions = true
						} else if isBound(v.Name) {
							anyBound = true
						}
					}
				}
				if mentions && anyBound {
					return true
				}
			case *Comparison:
				if x.Op != OpEq {
					continue
				}
				l, lok := x.Left.(*VarRef)
				r, rok := x.Right.(*VarRef)
				if lok && rok {
					if (l.Name == varName && isBound(r.Name)) ||
						(r.Name == varName && isBound(l.Name)) {
						return true
					}
				}
			}
		}
		return false
	}
	for len(perm) < n {
		best, bestScore := -1, -1
		for i := 0; i < n; i++ {
			if used[i] || !admissible(i) {
				continue
			}
			score := 0
			if f.Clauses[i].Kind == ForClause {
				if hasLiteralEq(f.Clauses[i].Var) {
					score = 3
				} else if connected(f.Clauses[i].Var) {
					score = 2
				} else {
					score = 1
				}
			}
			// Lets score 0: evaluate them as late as their dependencies
			// allow, after the variables they reference are selective.
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			// Unbound free variables (will surface as an eval error):
			// fall back to the remaining original order.
			for i := 0; i < n; i++ {
				if !used[i] {
					perm = append(perm, i)
					used[i] = true
				}
			}
			break
		}
		perm = append(perm, best)
		used[best] = true
		bound[f.Clauses[best].Var] = true
	}
	return perm
}

func isLiteral(e Expr) bool {
	switch e.(type) {
	case *StringLit, *NumberLit:
		return true
	}
	return false
}

// forDomain produces the binding sequence for for-clause i, following the
// program's strategy: equality pushdown from the value index, structural
// pruning to nodes meaningfully related to already-bound partners, or the
// plain scan (label scans from the document's memo, other
// environment-independent sources once per evaluation). A strategy whose
// runtime preconditions fail (unbound comparand, no resolvable partner)
// falls through to the next cheaper one, so the result is the same
// binding domain the scan would produce, filtered.
func (e *Engine) forDomain(prog *program, i int, cur *env) (Sequence, error) {
	cl := prog.g.Clauses[i]
	plan := prog.plan
	if plan == nil {
		return e.eval(cl.Source, cur)
	}
	tr := cur.ctx.tr
	cp := &plan.clauses[i]
	if cp.strategy == stratEquality {
		// Equality pushdown: a conjunct $x = <constant or bound var>
		// turns the domain scan into a value-index lookup. Literal
		// comparands give the same domain every tuple, so it is memoized
		// on the program.
		seq, hit := prog.domains[i]
		if !hit {
			var literal bool
			if seq, literal, hit = e.equalityCandidates(cp.ds.doc, cp.label, cl.Var, cur, prog.conjuncts); hit && literal {
				prog.domains[i] = seq
			}
		}
		if hit {
			domainEquality.Add(1)
			tr.domain(stratEquality)
			return seq, nil
		}
	}
	if (cp.strategy == stratEquality || cp.strategy == stratStructural) &&
		len(cp.partnerVars) > 0 && !e.MQFDisabled {
		if out, ok := e.structuralDomain(cp, cur); ok {
			domainStructural.Add(1)
			tr.domain(stratStructural)
			return out, nil
		}
	}
	domainScan.Add(1)
	tr.domain(stratScan)
	if cp.ds != nil {
		return cp.ds.memo.labelScan(cp.ds.doc, cp.label, cp.labelID), nil
	}
	if prog.envDep[i] {
		return e.eval(cl.Source, cur)
	}
	if seq, ok := prog.domains[i]; ok {
		return seq, nil
	}
	seq, err := e.eval(cl.Source, cur)
	if err != nil {
		return nil, err
	}
	prog.domains[i] = seq
	return seq, nil
}

// A domain memo accounts memoEntryBytes per entry (key, Sequence
// header, share of the map) plus memoItemBytes per item of capacity (one
// interface value), and clears itself wholesale before it would pass
// domainMemoBytes: it holds the working set of recent questions, not
// every partner tuple ever probed.
const (
	domainMemoBytes = 16 << 20
	memoEntryBytes  = 64
	memoItemBytes   = 16
)

// domainMemo memoizes one document's label domains, which are pure
// functions of the clause label and the resolved partner nodes, for every
// evaluation and shard window evaluating against the document. Entries
// with no partner are label scans; single-partner entries are
// RelatedCandidates streams; multi-partner entries are their
// intersections. Stored sequences are read-only.
type domainMemo struct {
	mu    sync.RWMutex
	m     map[domainKey]Sequence
	bytes int64 // accounted size of m, at most domainMemoBytes
}

// domainKey identifies a label domain: the clause label's id and the Pre
// positions of up to four resolved partners (n = 0 for the whole label).
// Clauses with more partners skip the memo for their intersection.
type domainKey struct {
	pre [4]int32
	lid int32
	n   int8
}

func (m *domainMemo) get(k domainKey) (Sequence, bool) {
	m.mu.RLock()
	seq, ok := m.m[k]
	m.mu.RUnlock()
	return seq, ok
}

// put stores seq under k unless a racing evaluation stored it first (both
// computed the same domain) or seq alone is larger than the bound.
func (m *domainMemo) put(k domainKey, seq Sequence) {
	size := memoEntryBytes + memoItemBytes*int64(cap(seq))
	if size > domainMemoBytes {
		return
	}
	m.mu.Lock()
	if _, dup := m.m[k]; !dup {
		if m.bytes+size > domainMemoBytes {
			m.m = make(map[domainKey]Sequence)
			m.bytes = 0
		}
		m.m[k] = seq
		m.bytes += size
	}
	m.mu.Unlock()
}

// labelScan returns every label-labelled node of doc (lid is the label's
// id) as a binding sequence in document order, memoized under n = 0. The
// label index is already Pre-sorted and duplicate-free, so this is the
// answer the path scan doc//label computes, without its dedup and sort.
func (m *domainMemo) labelScan(doc *xmldb.Document, label string, lid int32) Sequence {
	k := domainKey{lid: lid}
	if seq, ok := m.get(k); ok {
		return seq
	}
	seq := nodeSequence(doc.NodesByLabel(label))
	m.put(k, seq)
	return seq
}

// candidates returns the lid-labelled nodes meaningfully related to u as
// a binding sequence in document order, memoized as u's single-partner
// domain.
func (m *domainMemo) candidates(c *mqf.Checker, u *xmldb.Node, lid int32) Sequence {
	k := domainKey{lid: lid, n: 1}
	k.pre[0] = int32(u.Pre)
	if seq, ok := m.get(k); ok {
		return seq
	}
	seq := nodeSequence(c.RelatedCandidates(u, lid))
	m.put(k, seq)
	return seq
}

// structuralDomain produces a clause's binding domain from the
// structural join: the label nodes meaningfully related to every
// resolvable partner variable. Each partner's candidate stream is
// Pre-sorted, and a node is related to a partner exactly when it appears
// in that partner's stream — so the intersection is a k-pointer sorted
// merge seeded from the smallest stream, with no per-candidate
// relatedness checks. A variable joined by several mqf conjuncts is
// therefore pruned by all of them, not just the first. Streams and
// intersections come from the document's domain memo. Returns ok=false
// when no partner resolves to a single same-document node (the caller
// then falls back to the scan) or the clause label is absent.
func (e *Engine) structuralDomain(cp *clausePlan, cur *env) (Sequence, bool) {
	if cp.labelID < 0 {
		return nil, false
	}
	var nodeBuf [4]*xmldb.Node
	nodes := nodeBuf[:0]
	for _, name := range cp.partnerVars {
		if val, ok := cur.lookup(name); ok && len(val) == 1 {
			if ni, okn := val[0].(NodeItem); okn && e.docForNode(ni.Node) == cp.ds {
				nodes = append(nodes, ni.Node)
			}
		}
	}
	switch len(nodes) {
	case 0:
		return nil, false
	case 1:
		return cp.ds.memo.candidates(cp.ds.checker, nodes[0], cp.labelID), true
	}
	key := domainKey{lid: cp.labelID}
	useMemo := len(nodes) <= len(key.pre)
	if useMemo {
		key.n = int8(len(nodes))
		for k, n := range nodes {
			key.pre[k] = int32(n.Pre)
		}
		if seq, ok := cp.ds.memo.get(key); ok {
			return seq, true
		}
	}
	var streamBuf [4]Sequence
	streams := streamBuf[:0]
	for _, n := range nodes {
		streams = append(streams, cp.ds.memo.candidates(cp.ds.checker, n, cp.labelID))
	}
	seed, seedIdx := streams[0], 0
	for k := 1; k < len(streams); k++ {
		if len(streams[k]) < len(seed) {
			seed, seedIdx = streams[k], k
		}
	}
	out := make(Sequence, 0, len(seed))
	var idxBuf [4]int
	idx := idxBuf[:]
	if len(streams) > len(idxBuf) {
		idx = make([]int, len(streams))
	}
	for _, cand := range seed {
		pre := cand.(NodeItem).Node.Pre
		match := true
		for k := range streams {
			if k == seedIdx {
				continue
			}
			s, j := streams[k], idx[k]
			for j < len(s) && s[j].(NodeItem).Node.Pre < pre {
				j++
			}
			idx[k] = j
			if j >= len(s) || s[j].(NodeItem).Node.Pre != pre {
				match = false
				break
			}
		}
		if match {
			out = append(out, cand)
		}
	}
	if useMemo {
		cp.ds.memo.put(key, out)
	}
	return out, true
}
