package xquery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// Sharded evaluation runs one query over N Pre windows of a document
// concurrently, each window compiling its own program. A window restricts
// only the *driving clause* of the top-level FLWOR — the first for-clause
// in author order, the one whose bindings determine result order — to a
// contiguous Pre range. Every other clause, conjunct, nested FLWOR and
// path step still sees the whole document, so a window produces exactly
// the tuples whose driving binding falls inside it.
//
// Correctness argument (DESIGN.md §15): for a FLWOR without order-by,
// result order is driven by the original first for-variable — directly
// when clauses were not reordered (the driving clause is the outermost
// loop and its domain is Pre-sorted under every strategy), and via the
// docKeys restoration sort (whose primary key is that same variable's
// Pre) when they were. Windows that partition [0, maxPre] into
// contiguous ranges therefore partition the tuple space by driving
// binding, and concatenating per-window results in range order
// reproduces the unwindowed result byte for byte.

var (
	shardEvals    = obs.NewCounter("shard_evals_total")
	shardMergeNs  = obs.NewCounter("shard_merge_ns")
	shardFallback = obs.NewCounter("shard_fallback_total")
)

// Range is one window's contiguous Pre interval, inclusive on both ends.
// A Range with Lo > Hi is empty (more windows than top-level entries).
type Range struct {
	Lo, Hi int
}

// Partition splits d into n contiguous Pre ranges that cover
// [0, d.Size()-1] exactly, cutting only at top-level entry boundaries
// (element children of the root element) so no entry subtree is split.
// Entries are assigned greedily against the remaining-average target,
// which keeps ranges balanced by node count even under adversarial
// subtree-size skew; when n exceeds the entry count, trailing ranges are
// empty. Cuts are found by binary search, so partitioning allocates only
// the result.
func Partition(d *xmldb.Document, n int) []Range {
	if n < 1 {
		n = 1
	}
	maxPre := d.Size() - 1
	var kids []*xmldb.Node
	if root := d.RootElement(); root != nil {
		kids = root.Children
	}
	// entryAt returns the index of the first entry at or after kids[i].
	entryAt := func(i int) int {
		for i < len(kids) && kids[i].Kind != xmldb.ElementNode {
			i++
		}
		return i
	}
	ranges := make([]Range, 0, n)
	lo, next := 0, entryAt(0) // next: the first unassigned entry
	for k := 0; k < n-1; k++ {
		if next >= len(kids) {
			ranges = append(ranges, Range{Lo: lo, Hi: lo - 1})
			continue
		}
		target := lo + (maxPre-lo+1+(n-k)-1)/(n-k)
		// Take at least one entry, and stop before the first later entry
		// that starts at or past the target.
		cut := sort.Search(len(kids), func(i int) bool { return kids[i].Pre >= target })
		cut = entryAt(max(cut, next+1))
		hi := maxPre
		if cut < len(kids) {
			hi = kids[cut].Pre - 1
		}
		ranges = append(ranges, Range{Lo: lo, Hi: hi})
		lo, next = hi+1, cut
	}
	// The last range takes everything left, keeping coverage exact.
	return append(ranges, Range{Lo: lo, Hi: maxPre})
}

// EvalSharded evaluates expr over n windows of the document its driving
// clause ranges over (see Partition), concurrently, and concatenates the
// window results in window order — the same sequence EvalTraced returns.
// An expression that cannot be split by a driving clause (not a FLWOR,
// an order-by, a first for-clause that is not a label domain), or
// n <= 1, is evaluated whole. The windows of one evaluation share one
// binding budget. When sp is non-nil it receives a pre-measured child
// span per window plus a "merge" span for the concatenation.
func (e *Engine) EvalSharded(expr Expr, n int, sp *obs.Span) (Sequence, error) {
	_, docName, ok := e.drivingClause(expr)
	if n <= 1 || !ok {
		shardFallback.Add(1)
		return e.EvalTraced(expr, sp)
	}
	ranges := Partition(e.docs[docName].doc, n)
	type part struct {
		seq Sequence
		err error
		dur time.Duration
	}
	parts := make([]part, n)
	var steps atomic.Int64
	var wg sync.WaitGroup
	for k := range ranges {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			seq, err := e.evalOne(expr, nil, &steps, &ranges[k])
			parts[k] = part{seq: seq, err: err, dur: time.Since(t0)}
		}(k)
	}
	wg.Wait()
	shardEvals.Add(int64(n))
	if sp != nil {
		sp.SetInt("shards", int64(n))
		for k := range parts {
			sp.AddChild(fmt.Sprintf("shard%d", k), parts[k].dur)
		}
	}
	total := 0
	for k := range parts {
		if parts[k].err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, parts[k].err)
		}
		total += len(parts[k].seq)
	}
	if steps.Load() > e.stepLimit() {
		// No window crossed the budget by itself, but together they did.
		return nil, ErrBudget
	}
	t0 := time.Now()
	merged := make(Sequence, 0, total)
	for k := range parts {
		merged = append(merged, parts[k].seq...)
	}
	mergeDur := time.Since(t0)
	shardMergeNs.Add(mergeDur.Nanoseconds())
	if sp != nil {
		sp.AddChild("merge", mergeDur)
	}
	return merged, nil
}

// drivingClause resolves expr's driving clause when its results can be
// partitioned by one: expr is a FLWOR without order-by (a global sort
// cannot be rebuilt by concatenating per-window sorts), its clause
// variables are distinct, and its first for-clause ranges over a label
// domain (doc//label) of a loaded document. Returns the bound variable
// and the name of the document it ranges over.
func (e *Engine) drivingClause(expr Expr) (varName, docName string, ok bool) {
	f, isF := expr.(*FLWOR)
	if !isF || len(f.OrderBy) > 0 {
		return "", "", false
	}
	seen := make(map[string]bool, len(f.Clauses))
	for _, cl := range f.Clauses {
		if seen[cl.Var] {
			// A rebound variable makes "which binding drives result
			// order" ambiguous; stay on the unwindowed path.
			return "", "", false
		}
		seen[cl.Var] = true
	}
	for _, cl := range f.Clauses {
		if cl.Kind != ForClause {
			continue
		}
		ds, _, isLabel := e.labelDomain(cl.Source)
		if !isLabel {
			return "", "", false
		}
		return cl.Var, ds.doc.Name, true
	}
	return "", "", false
}

// windowSequence restricts a driving-clause binding domain to the nodes
// with lo <= Pre <= hi. Domains produced by every strategy are
// Pre-sorted node sequences, so the restriction is a binary-searched
// subslice; a domain that unexpectedly carries non-node items (which a
// label domain cannot produce) falls back to a linear filter.
func windowSequence(src Sequence, lo, hi int) Sequence {
	if len(src) == 0 {
		return src
	}
	first, okFirst := src[0].(NodeItem)
	last, okLast := src[len(src)-1].(NodeItem)
	if okFirst && okLast && first.Node.Pre <= last.Node.Pre {
		i := sort.Search(len(src), func(k int) bool {
			n, isNode := src[k].(NodeItem)
			return !isNode || n.Node.Pre >= lo
		})
		j := sort.Search(len(src), func(k int) bool {
			n, isNode := src[k].(NodeItem)
			return !isNode || n.Node.Pre > hi
		})
		if i <= j {
			return src[i:j]
		}
	}
	out := make(Sequence, 0, len(src))
	for _, it := range src {
		if n, isNode := it.(NodeItem); isNode && n.Node.Pre >= lo && n.Node.Pre <= hi {
			out = append(out, it)
		}
	}
	return out
}
