package nalix

import (
	"strings"
	"testing"

	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/xmp"
)

// TestShardedEngineMatchesUnsharded asks every good XMP phrasing of an
// engine sharded 4 ways and an unsharded engine over the same corpus,
// requiring identical answers end to end (translation, results, values)
// — the public-API face of the cross-sharding parity guarantee.
func TestShardedEngineMatchesUnsharded(t *testing.T) {
	d := dataset.Generate(1)
	plain := New()
	plain.LoadDocument(d)
	sharded := New()
	sharded.SetShards(4)
	sharded.LoadDocument(d)
	if got := sharded.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}

	before := obs.Default.Snapshot().Counter("shard_evals_total")
	asked := 0
	for _, task := range xmp.Tasks() {
		for _, p := range task.Good() {
			want, err := plain.Ask("", p.Text)
			if err != nil {
				t.Fatalf("%s %q: unsharded: %v", task.ID, p.Text, err)
			}
			got, err := sharded.Ask("", p.Text)
			if err != nil {
				t.Fatalf("%s %q: sharded: %v", task.ID, p.Text, err)
			}
			if got.Accepted != want.Accepted {
				t.Fatalf("%s %q: Accepted = %v sharded, %v unsharded", task.ID, p.Text, got.Accepted, want.Accepted)
			}
			if strings.Join(got.Values, "\n") != strings.Join(want.Values, "\n") {
				t.Errorf("%s %q: sharded values differ from unsharded", task.ID, p.Text)
			}
			if want.Accepted {
				asked++
			}
		}
	}
	if asked == 0 {
		t.Fatal("no accepted phrasings; parity vacuous")
	}
	// The windows must actually have run: shard_evals_total grows by the
	// shard count for every sharded evaluation that wasn't evaluated whole.
	if after := obs.Default.Snapshot().Counter("shard_evals_total"); after == before {
		t.Error("shard_evals_total did not move; sharded engine never scattered")
	}
}

// TestShardedQueryAndClose covers the raw-XQuery path and teardown.
func TestShardedQueryAndClose(t *testing.T) {
	e := New()
	e.SetShards(3)
	e.LoadDocument(dataset.Generate(1))
	defer e.Close()

	ans, err := e.Query(`for $b in doc("dblp.xml")//book, $t in $b/title where $b/@year > "1991" return $t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Values) == 0 {
		t.Fatal("sharded Query returned no values")
	}

	// A traced sharded evaluation carries one span per window plus the
	// merge under its eval span.
	traced, err := e.QueryTraced(`for $b in doc("dblp.xml")//book return $b/title`)
	if err != nil {
		t.Fatal(err)
	}
	var children []string
	for _, sp := range traced.Trace.Root.Children {
		if sp.Name == "eval" {
			for _, c := range sp.Children {
				children = append(children, c.Name)
			}
		}
	}
	if got := strings.Join(children, " "); got != "shard0 shard1 shard2 merge" {
		t.Errorf("eval span children = %q, want per-window spans and merge", got)
	}

	// order-by cannot be split into windows; it is evaluated whole.
	ans2, err := e.Query(`for $b in doc("dblp.xml")//book order by $b/title return $b/title`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans2.Values) == 0 {
		t.Fatal("order-by Query returned no values")
	}
}
