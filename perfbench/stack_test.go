package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"nalix/internal/server"
)

func encode(t *testing.T, r *server.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnswerBytes checks that the verifier's shortcut compares exactly
// the answer: responses that differ only in request ID, cache verdict or
// trace summary share their answer bytes, and a different result does
// not.
func TestAnswerBytes(t *testing.T) {
	base := func() *server.Response {
		return &server.Response{
			Endpoint: "ask", Question: `Find every title that contains "XML".`, Accepted: true,
			Results: []string{`<title>XML "Data" &amp; "count": 1</title>`, `<title>,"count":2</title>`},
			Values:  []string{`XML "Data"`}, Count: 2,
		}
	}
	a := base()
	a.RequestID, a.Cache = "0a1b-000001", "miss"
	a.Trace = &server.TraceSummary{TotalNs: 123, Stages: []server.StageLatency{{Stage: "eval", Ns: 100}},
		Counters: []server.TraceCounterOut{{Name: "count", Value: 3}}}
	b := base()
	b.RequestID, b.Cache = "0a1b-000002", "hit"
	b.Trace = &server.TraceSummary{TotalNs: 456}
	if !bytes.Equal(answerBytes(encode(t, a)), answerBytes(encode(t, b))) {
		t.Errorf("answer bytes differ for the same answer:\n%s\n%s", encode(t, a), encode(t, b))
	}
	c := base()
	c.Results = c.Results[:1]
	c.Count = 1
	if bytes.Equal(answerBytes(encode(t, a)), answerBytes(encode(t, c))) {
		t.Error("answer bytes equal for different results")
	}
}
