package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nalix"
	"nalix/internal/cache"
	"nalix/internal/dataset"
	"nalix/internal/server"
)

// refFS holds the reference answers: one gzipped TSV per corpus scale,
// recorded with -record from an uncached single-engine Ask. Each line is
// accepted, feedback code, result count, answer digest and question.
//
//go:embed refdata/*.tsv.gz
var refFS embed.FS

// reference is the expected answer to one question.
type reference struct {
	Accepted bool
	Code     string
	Results  int
	Digest   string
}

// answerDigest fingerprints what a user sees of an answer: the accepted
// flag, the deciding feedback code, and the ordered result items.
func answerDigest(accepted bool, code string, results []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%t\x1f%s\x1f%d", accepted, code, len(results))
	for _, r := range results {
		h.Write([]byte{0x1e})
		h.Write([]byte(r))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// refFile names the reference file of a corpus scale.
func refFile(scale int) string {
	return fmt.Sprintf("refdata/answers-scale%d.tsv.gz", scale)
}

// loadReferences reads the reference answers of a corpus scale, keyed by
// canonical question.
func loadReferences(scale int) (map[string]reference, error) {
	b, err := refFS.ReadFile(refFile(scale))
	if err != nil {
		return nil, fmt.Errorf("reading reference answers: %w", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("reading reference answers: %w", err)
	}
	refs := map[string]reference{}
	sc := bufio.NewScanner(zr)
	for line := 1; sc.Scan(); line++ {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("%s:%d: want 5 fields, got %d", refFile(scale), line, len(f))
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: result count: %w", refFile(scale), line, err)
		}
		refs[cache.CanonicalQuery(f[4])] = reference{Accepted: f[0] == "true", Code: f[1], Results: n, Digest: f[3]}
	}
	return refs, sc.Err()
}

// record writes the reference answers of every question any workload can
// send on a corpus scale, computed by one uncached engine's Ask.
func record(dir string, scale int) error {
	doc := dataset.Generate(scale)
	pool := studyPool()
	if scale == 1 {
		pool = append(pool, lookupPool(corpusVocab(doc), false)...)
	} else {
		pool = lookupPool(corpusVocab(dataset.Generate(1)), true)
	}
	eng := nalix.New()
	eng.LoadDocument(doc)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	seen := map[string]bool{}
	for i, q := range pool {
		if seen[cache.CanonicalQuery(q.Text)] {
			continue
		}
		seen[cache.CanonicalQuery(q.Text)] = true
		ans, err := eng.Ask("", q.Text)
		if err != nil {
			return fmt.Errorf("asking %q: %w", q.Text, err)
		}
		code := ""
		if !ans.Accepted {
			code = server.FirstErrorCode(ans.Feedback)
		}
		fmt.Fprintf(zw, "%t\t%s\t%d\t%s\t%s\n", ans.Accepted, code, len(ans.Results),
			answerDigest(ans.Accepted, code, ans.Results), q.Text)
		if (i+1)%500 == 0 {
			fmt.Fprintf(os.Stderr, "record scale %d: %d/%d\n", scale, i+1, len(pool))
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refFile(scale)), buf.Bytes(), 0o644)
}
