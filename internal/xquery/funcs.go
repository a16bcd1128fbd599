package xquery

import (
	"fmt"
	"sort"
	"strings"

	"nalix/internal/xmldb"
)

// evalFunc dispatches built-in function calls.
func (e *Engine) evalFunc(call *FuncCall, env *env) (Sequence, error) {
	args := make([]Sequence, len(call.Args))
	for i, a := range call.Args {
		v, err := e.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch call.Name {
	case "true":
		return Sequence{BoolItem{true}}, nil
	case "false":
		return Sequence{BoolItem{false}}, nil
	case "not":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		return Sequence{BoolItem{!EffectiveBool(args[0])}}, nil
	case "count":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		return Sequence{NumberItem{float64(len(args[0]))}}, nil
	case "exists":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		return Sequence{BoolItem{len(args[0]) > 0}}, nil
	case "empty":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		return Sequence{BoolItem{len(args[0]) == 0}}, nil
	case "sum", "avg", "min", "max":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		return aggregate(call.Name, args[0])
	case "mqf":
		return e.evalMQF(args, env.ctx.tr)
	case "ftcontains":
		// TeXQuery-style phrase matching: true when any node argument's
		// subtree contains the phrase at token boundaries.
		if err := arity(call, args, 2); err != nil {
			return nil, err
		}
		phrase := atomizeFirst(args[1])
		for _, it := range args[0] {
			n, ok := it.(NodeItem)
			if !ok {
				return nil, fmt.Errorf("xquery: ftcontains() expects node arguments")
			}
			ds := e.docForNode(n.Node)
			if ds == nil {
				return nil, fmt.Errorf("xquery: ftcontains() over constructed nodes")
			}
			if ds.ftIndex().Contains(n.Node, phrase) {
				return Sequence{BoolItem{true}}, nil
			}
		}
		return Sequence{BoolItem{false}}, nil
	case "contains", "starts-with", "ends-with":
		if err := arity(call, args, 2); err != nil {
			return nil, err
		}
		// Existential over the first argument, like general comparison:
		// contains($books, "XML") is true if any book matches.
		needle := strings.ToLower(atomizeFirst(args[1]))
		for _, it := range args[0] {
			hay := strings.ToLower(AtomizeItem(it))
			var ok bool
			switch call.Name {
			case "contains":
				ok = strings.Contains(hay, needle)
			case "starts-with":
				ok = strings.HasPrefix(hay, needle)
			case "ends-with":
				ok = strings.HasSuffix(hay, needle)
			}
			if ok {
				return Sequence{BoolItem{true}}, nil
			}
		}
		return Sequence{BoolItem{false}}, nil
	case "name":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return Sequence{StringItem{""}}, nil
		}
		if n, ok := args[0][0].(NodeItem); ok {
			return Sequence{StringItem{n.Node.Label}}, nil
		}
		return Sequence{StringItem{""}}, nil
	case "string", "data":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		var out Sequence
		for _, it := range args[0] {
			out = append(out, StringItem{strings.TrimSpace(AtomizeItem(it))})
		}
		if call.Name == "string" && len(out) == 0 {
			out = Sequence{StringItem{""}}
		}
		return out, nil
	case "number":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		f, ok := numericValue(args[0][0])
		if !ok {
			return nil, fmt.Errorf("xquery: number(): %q is not numeric", AtomizeItem(args[0][0]))
		}
		return Sequence{NumberItem{f}}, nil
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			for _, it := range a {
				sb.WriteString(AtomizeItem(it))
			}
		}
		return Sequence{StringItem{sb.String()}}, nil
	case "distinct-values":
		if err := arity(call, args, 1); err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		var out Sequence
		for _, it := range args[0] {
			v := strings.TrimSpace(AtomizeItem(it))
			key := strings.ToLower(v)
			if !seen[key] {
				seen[key] = true
				out = append(out, StringItem{v})
			}
		}
		return out, nil
	case "position", "last":
		return nil, fmt.Errorf("xquery: %s() is not supported in this subset", call.Name)
	default:
		return nil, fmt.Errorf("xquery: unknown function %s()", call.Name)
	}
}

func arity(call *FuncCall, args []Sequence, want int) error {
	if len(args) != want {
		return fmt.Errorf("xquery: %s() expects %d argument(s), got %d", call.Name, want, len(args))
	}
	return nil
}

func atomizeFirst(s Sequence) string {
	if len(s) == 0 {
		return ""
	}
	return AtomizeItem(s[0])
}

func aggregate(name string, s Sequence) (Sequence, error) {
	if len(s) == 0 {
		if name == "sum" {
			return Sequence{NumberItem{0}}, nil
		}
		return nil, nil
	}
	allNumeric := true
	nums := make([]float64, 0, len(s))
	for _, it := range s {
		f, ok := numericValue(it)
		if !ok {
			allNumeric = false
			break
		}
		nums = append(nums, f)
	}
	if allNumeric {
		switch name {
		case "sum", "avg":
			total := 0.0
			for _, f := range nums {
				total += f
			}
			if name == "avg" {
				total /= float64(len(nums))
			}
			return Sequence{NumberItem{total}}, nil
		case "min":
			m := nums[0]
			for _, f := range nums[1:] {
				if f < m {
					m = f
				}
			}
			return Sequence{NumberItem{m}}, nil
		case "max":
			m := nums[0]
			for _, f := range nums[1:] {
				if f > m {
					m = f
				}
			}
			return Sequence{NumberItem{m}}, nil
		}
	}
	if name == "sum" || name == "avg" {
		return nil, fmt.Errorf("xquery: %s() over non-numeric values", name)
	}
	vals := make([]string, len(s))
	for i, it := range s {
		vals[i] = strings.TrimSpace(AtomizeItem(it))
	}
	sort.Strings(vals)
	if name == "min" {
		return Sequence{StringItem{vals[0]}}, nil
	}
	return Sequence{StringItem{vals[len(vals)-1]}}, nil
}

// evalMQF implements the Schema-Free XQuery mqf() predicate: the nodes
// bound to the argument variables must form a meaningful group in their
// document. Empty arguments make the predicate false (no witness); atomic
// arguments are an error.
func (e *Engine) evalMQF(args []Sequence, tr *evalTrace) (Sequence, error) {
	if e.MQFDisabled {
		return Sequence{BoolItem{true}}, nil
	}
	var nodes []*xmldb.Node
	for _, a := range args {
		if len(a) == 0 {
			return Sequence{BoolItem{false}}, nil
		}
		for _, it := range a {
			n, ok := it.(NodeItem)
			if !ok {
				return nil, fmt.Errorf("xquery: mqf() expects node arguments, got %q", AtomizeItem(it))
			}
			nodes = append(nodes, n.Node)
		}
	}
	if len(nodes) < 2 {
		return Sequence{BoolItem{true}}, nil
	}
	ds := e.docForNode(nodes[0])
	if ds == nil {
		return nil, fmt.Errorf("xquery: mqf() over constructed nodes")
	}
	for _, n := range nodes[1:] {
		if e.docForNode(n) != ds {
			return Sequence{BoolItem{false}}, nil // cross-document: never related
		}
	}
	t0 := tr.clock()
	ok, pairs := ds.checker.RelatedAllCounted(nodes)
	tr.mqf(pairs, t0)
	return Sequence{BoolItem{ok}}, nil
}
