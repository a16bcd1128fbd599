// Command nalix is the interactive natural language query interface: it
// loads an XML document (or the built-in demo corpora) and answers English
// questions, showing the generated Schema-Free XQuery, tailored feedback
// for questions it cannot understand, and the results.
//
// Usage:
//
//	nalix [-doc file.xml] [-corpus movies|library|bib|dblp] [-tree] [-keyword] [-explain] [-trace] [-json] [query ...]
//
// With query arguments it answers them and exits; without, it reads
// questions from stdin, one per line. -explain prints each query's
// pipeline span tree (parse, classify, validate, translate, plan, eval,
// mqf, serialize) with timings; -trace prints the same trace as JSON.
// Both print a failed query's trace too, tagged with its error.
// -json emits one machine-readable JSON object per query — result,
// feedback code, trace summary — in the same schema the nalix-serve
// HTTP endpoints return, so scripts consume one shape either way.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nalix"
	"nalix/internal/dataset"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// display bundles the output switches of the answer loop.
type display struct {
	tree    bool
	keyword bool
	explain bool
	trace   bool
	json    bool
}

func main() {
	docPath := flag.String("doc", "", "XML file to load")
	corpus := flag.String("corpus", "bib", "built-in corpus when -doc is absent: movies, library, bib or dblp")
	var d display
	flag.BoolVar(&d.tree, "tree", false, "print the dependency parse tree of each query")
	flag.BoolVar(&d.keyword, "keyword", false, "treat input as keyword queries (baseline interface)")
	flag.BoolVar(&d.explain, "explain", false, "print each query's pipeline span tree with timings")
	flag.BoolVar(&d.trace, "trace", false, "print each query's trace as JSON")
	flag.BoolVar(&d.json, "json", false, "emit one JSON object per query (the nalix-serve response schema)")
	nocache := flag.Bool("nocache", false, "disable the layered query cache (translation, plan, result)")
	flag.Parse()

	eng := nalix.New()
	if !*nocache {
		eng.EnableCache(nalix.CacheConfig{})
	}
	name, err := load(eng, *docPath, *corpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nalix:", err)
		os.Exit(1)
	}
	if !d.json {
		fmt.Printf("loaded %s\n", name)
	}

	if flag.NArg() > 0 {
		for _, q := range flag.Args() {
			answer(eng, q, d)
		}
		return
	}
	fmt.Println(`Type an English query ("Find all movies directed by Ron Howard."), or "quit".`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		answer(eng, line, d)
	}
}

func load(eng *nalix.Engine, docPath, corpus string) (string, error) {
	if docPath != "" {
		f, err := os.Open(docPath)
		if err != nil {
			return "", err
		}
		defer f.Close()
		name := filepath.Base(docPath)
		return name, eng.LoadXML(name, f)
	}
	var doc *xmldb.Document
	switch corpus {
	case "movies":
		doc = dataset.Movies()
	case "library":
		doc = dataset.Library()
	case "bib":
		doc = dataset.Bib()
	case "dblp":
		doc = dataset.Generate(1)
	default:
		return "", fmt.Errorf("unknown corpus %q (movies, library, bib, dblp)", corpus)
	}
	var sb strings.Builder
	if err := dataset.WriteXML(&sb, doc); err != nil {
		return "", err
	}
	return doc.Name, eng.LoadXMLString(doc.Name, sb.String())
}

// answer answers one query, through the *Traced engine methods when
// -explain or -trace asks for the trace and the plain ones otherwise.
func answer(eng *nalix.Engine, q string, d display) {
	if d.json {
		answerJSON(eng, q, d)
		return
	}
	traced := d.explain || d.trace
	if d.keyword {
		var hits []string
		var tr *nalix.Trace
		var err error
		if traced {
			hits, tr, err = eng.KeywordSearchTraced("", q)
		} else {
			hits, err = eng.KeywordSearch("", q)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "keyword search:", err)
			printErrorTrace(err, d)
			return
		}
		fmt.Printf("%d results\n", len(hits))
		printCapped(hits)
		printTrace(tr, d)
		return
	}
	ask := eng.Ask
	if traced {
		ask = eng.AskTraced
	}
	ans, err := ask("", q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		printErrorTrace(err, d)
		return
	}
	if d.tree {
		fmt.Print(ans.ParseTree)
		for _, b := range ans.Bindings {
			marks := ""
			if b.Core {
				marks += " (core)"
			}
			if b.Implicit {
				marks += " (implicit)"
			}
			fmt.Printf("  $%s -> //%s%s\n", b.Var, b.Label, marks)
		}
	}
	for _, f := range ans.Feedback {
		fmt.Println(f)
	}
	if !ans.Accepted {
		printTrace(ans.Trace, d)
		return
	}
	fmt.Println("translated query:")
	for _, line := range strings.Split(strings.TrimRight(ans.XQuery, "\n"), "\n") {
		fmt.Println("  " + line)
	}
	fmt.Printf("%d results\n", len(ans.Results))
	printCapped(ans.Results)
	printTrace(ans.Trace, d)
}

// answerJSON answers one query in the nalix-serve response schema: one
// JSON object with the result, feedback code, and trace summary, so it
// always uses the *Traced engine methods.
func answerJSON(eng *nalix.Engine, q string, d display) {
	var resp *server.Response
	if d.keyword {
		hits, tr, err := eng.KeywordSearchTraced("", q)
		if err != nil {
			resp = &server.Response{Endpoint: "keyword", Question: q, Error: err.Error()}
		} else {
			resp = server.FromKeyword("", q, hits, tr)
		}
	} else {
		ans, err := eng.AskTraced("", q)
		if err != nil {
			resp = &server.Response{Endpoint: "ask", Question: q, Error: err.Error()}
		} else {
			resp = server.FromAnswer("ask", "", q, ans)
		}
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		return
	}
	fmt.Println(string(b))
}

// printErrorTrace prints the trace a failed *Traced call carries in its
// *nalix.TraceError (nothing for a bare error).
func printErrorTrace(err error, d display) {
	var te *nalix.TraceError
	if errors.As(err, &te) {
		printTrace(te.Trace, d)
	}
}

// printTrace renders a query's trace as requested: an indented span tree
// with timings for -explain, indented JSON for -trace.
func printTrace(tr *nalix.Trace, d display) {
	if tr == nil {
		return
	}
	if d.explain {
		fmt.Println("explain:")
		for _, line := range strings.Split(strings.TrimRight(tr.Render(), "\n"), "\n") {
			fmt.Println("  " + line)
		}
	}
	if d.trace {
		b, err := json.MarshalIndent(tr, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return
		}
		fmt.Println(string(b))
	}
}

func printCapped(items []string) {
	const cap = 20
	for i, r := range items {
		if i == cap {
			fmt.Printf("  ... and %d more\n", len(items)-cap)
			break
		}
		fmt.Println("  " + r)
	}
}
