package server

import (
	"sync"
	"time"

	"nalix"
)

// traceEntry is one served request's retained observability record.
type traceEntry struct {
	ID       string
	Endpoint string
	Document string
	Question string
	Time     time.Time
	Duration time.Duration
	Trace    *nalix.Trace
	// SampleReason says which retention rule kept the trace ("error",
	// "feedback", "threshold", "slow", "sample", or "all" when no
	// sampling policy is installed).
	SampleReason string
	// SlowStage/SlowStageNs name the slowest top-level pipeline stage —
	// the dimension the slow-query ring keys on alongside wall time.
	SlowStage   string
	SlowStageNs int64
	// Error carries the failure of an error-path request; its Trace is
	// the one the engine handed back in a *nalix.TraceError.
	Error string
}

// traceStore retains request traces in two bounded rings: the kept
// subset of recent requests (for /debug/traces/<id>, populated by the
// tail-sampling verdict) and the slow subset (for /debug/slow). Both
// overwrite oldest-first when full; a slow request stays retrievable by
// ID for as long as either ring holds it. Lookup scans the rings —
// capacities are small (hundreds), and keeping no side index means
// eviction cannot leak.
type traceStore struct {
	mu        sync.Mutex
	kept      []*traceEntry
	keptPos   int
	keptTotal int64
	slow      []*traceEntry
	slowPos   int
	slowTotal int64
}

func newTraceStore(keptCap, slowCap int) *traceStore {
	if keptCap < 0 {
		keptCap = 0
	}
	if slowCap < 0 {
		slowCap = 0
	}
	return &traceStore{
		kept: make([]*traceEntry, keptCap),
		slow: make([]*traceEntry, slowCap),
	}
}

// add retains an entry in the kept ring (when the sampling verdict kept
// it) and in the slow ring (when the slow verdict matched). An entry
// neither kept nor slow is dropped — that is the point of tail
// sampling.
func (st *traceStore) add(e *traceEntry, kept, slow bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if kept {
		st.keptTotal++
		if len(st.kept) > 0 {
			st.kept[st.keptPos] = e
			st.keptPos = (st.keptPos + 1) % len(st.kept)
		}
	}
	if slow {
		st.slowTotal++
		if len(st.slow) > 0 {
			st.slow[st.slowPos] = e
			st.slowPos = (st.slowPos + 1) % len(st.slow)
		}
	}
}

// byID returns the retained entry with the given request ID, or nil.
func (st *traceStore) byID(id string) *traceEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.slow {
		if e != nil && e.ID == id {
			return e
		}
	}
	for _, e := range st.kept {
		if e != nil && e.ID == id {
			return e
		}
	}
	return nil
}

// keptEntries returns the kept ring oldest-first, plus the count of
// kept requests ever seen (including evicted ones).
func (st *traceStore) keptEntries() ([]*traceEntry, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.kept)
	var out []*traceEntry
	for i := 0; i < n; i++ {
		if e := st.kept[(st.keptPos+i)%n]; e != nil {
			out = append(out, e)
		}
	}
	return out, st.keptTotal
}

// slowEntries returns the slow ring oldest-first, plus the count of slow
// requests ever seen (including evicted ones).
func (st *traceStore) slowEntries() ([]*traceEntry, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.slow)
	var out []*traceEntry
	for i := 0; i < n; i++ {
		if e := st.slow[(st.slowPos+i)%n]; e != nil {
			out = append(out, e)
		}
	}
	return out, st.slowTotal
}
