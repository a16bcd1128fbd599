package xquery

import (
	"time"

	"nalix/internal/obs"
)

// evalsTotal counts evaluations process-wide, traced or not.
var evalsTotal = obs.NewCounter("xquery_evals_total")

// evalTrace accumulates stage timings for one evaluation. The FLWOR
// expander visits clauses once per outer binding, so recording a span per
// visit would blow the span budget on any non-trivial join; instead the
// work aggregates here (clauses keyed by kind and variable, first-seen
// order) and flushes as pre-ended child spans when the evaluation
// completes. All methods are nil-safe: a nil *evalTrace — tracing off —
// records nothing and never reads the clock.
type evalTrace struct {
	planNS   int64
	clauses  []clauseStat
	mqfNS    int64
	mqfCalls int64
	mqfPairs int64

	// The programs compiled, per-strategy domain production counts and
	// the number of mqf conjuncts the plan discharged, rendered as
	// attributes of the plan child span.
	programs   int64
	domEq      int64
	domStruct  int64
	domScan    int64
	discharged int64
}

// clauseStat aggregates one FLWOR clause's domain work across every
// visit of the binding search.
type clauseStat struct {
	kind     string // "for" or "let"
	varName  string
	visits   int64
	bindings int64
	ns       int64
}

// clock reads the monotonic clock when tracing is on; zero otherwise.
func (t *evalTrace) clock() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// plan charges the time since t0 to the clause-reordering planner.
func (t *evalTrace) plan(t0 time.Time) {
	if t == nil {
		return
	}
	t.planNS += time.Since(t0).Nanoseconds()
}

// compiled records one FLWOR program compiled.
func (t *evalTrace) compiled() {
	if t == nil {
		return
	}
	t.programs++
}

// clause charges one domain evaluation producing n bindings to the
// (kind, variable) clause.
func (t *evalTrace) clause(kind, varName string, n int, t0 time.Time) {
	if t == nil {
		return
	}
	d := time.Since(t0).Nanoseconds()
	for i := range t.clauses {
		if t.clauses[i].kind == kind && t.clauses[i].varName == varName {
			t.clauses[i].visits++
			t.clauses[i].bindings += int64(n)
			t.clauses[i].ns += d
			return
		}
	}
	t.clauses = append(t.clauses, clauseStat{
		kind: kind, varName: varName, visits: 1, bindings: int64(n), ns: d,
	})
}

// domain records one for-clause binding-sequence production under the
// given strategy.
func (t *evalTrace) domain(s domainStrategy) {
	if t == nil {
		return
	}
	switch s {
	case stratEquality:
		t.domEq++
	case stratStructural:
		t.domStruct++
	default:
		t.domScan++
	}
}

// discharge records n mqf conjuncts skipped by the plan.
func (t *evalTrace) discharge(n int64) {
	if t == nil {
		return
	}
	t.discharged += n
}

// mqf charges one mqf() predicate evaluation that examined the given
// number of node pairs.
func (t *evalTrace) mqf(pairs int64, t0 time.Time) {
	if t == nil {
		return
	}
	t.mqfCalls++
	t.mqfPairs += pairs
	t.mqfNS += time.Since(t0).Nanoseconds()
}

// flush renders the aggregates as pre-ended children of the eval span,
// and the deterministic totals as per-trace counters.
func (t *evalTrace) flush(sp *obs.Span) {
	if t == nil || sp == nil {
		return
	}
	pc := sp.AddChild("plan", time.Duration(t.planNS))
	if t.programs > 0 {
		pc.SetInt("programs", t.programs)
	}
	if t.domEq > 0 {
		pc.SetInt("equality", t.domEq)
	}
	if t.domStruct > 0 {
		pc.SetInt("structural", t.domStruct)
	}
	if t.domScan > 0 {
		pc.SetInt("scan", t.domScan)
	}
	if t.discharged > 0 {
		pc.SetInt("discharged", t.discharged)
	}
	for _, c := range t.clauses {
		ch := sp.AddChild(c.kind, time.Duration(c.ns))
		ch.Set("var", c.varName)
		ch.SetInt("visits", c.visits)
		ch.SetInt("bindings", c.bindings)
	}
	if t.mqfCalls > 0 {
		m := sp.AddChild("mqf", time.Duration(t.mqfNS))
		m.SetInt("calls", t.mqfCalls)
		m.SetInt("pairs", t.mqfPairs)
		sp.Count("mqf_pairs_checked", t.mqfPairs)
	}
}
