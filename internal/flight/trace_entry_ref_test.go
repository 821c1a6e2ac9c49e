package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/trace"
)

// refTraceEntry is traceEntry as it stood while the store was handed a
// trace's full export: it counted the spans and their errors in the
// export's maps. Kept verbatim, renamed only, as the oracle
// TestTraceEntryMatchesExportReference holds the summary's entry to.
func refTraceEntry(td trace.TraceData) (Entry, bool) {
	if td.Session == "" {
		return Entry{}, false
	}
	errs := 0
	for _, sp := range td.Spans {
		if sp.Attrs["error"] != nil {
			errs++
		}
	}
	detail := map[string]any{
		"durMs": td.DurMs,
		"spans": len(td.Spans),
	}
	if errs > 0 {
		detail["errSpans"] = errs
	}
	if td.ParentSpan != "" {
		detail["parentSpan"] = td.ParentSpan
	}
	return Entry{
		Time:    td.Start,
		Kind:    KindSpan,
		Session: td.Session,
		TraceID: td.TraceID,
		Message: "trace " + td.Name,
		Detail:  detail,
	}, true
}

// TestTraceEntryMatchesExportReference: over generated finished traces —
// with and without a session and a remote parent span, attributes of
// every kind, spans that carry an error once, twice or not at all — the
// timeline entry built from the trace's summary is the one the reference
// built from its export, field for field and in the flight op's JSON.
func TestTraceEntryMatchesExportReference(t *testing.T) {
	tracer := trace.NewTracer(4)
	var withErrs int
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctx := trace.Context{TraceID: fmt.Sprintf("%016x", seed)}
		if rng.Intn(2) == 0 {
			ctx.ParentSpan = "client-start"
		}
		session := []string{"", "s1"}[rng.Intn(2)]
		tr := tracer.StartCtx(ctx, []string{"configure", "recover"}[rng.Intn(2)], session, trace.Bool("handoff", rng.Intn(2) == 0))
		spans := []*trace.Span{tr.Root()}
		for op := 0; op < 20; op++ {
			sp := spans[rng.Intn(len(spans))]
			switch rng.Intn(6) {
			case 0, 1:
				spans = append(spans, sp.Child("discover", trace.String("node", "n"), trace.Int("depth", int64(rng.Intn(3)))))
			case 2:
				sp.Set(trace.Float("cost", rng.Float64()), trace.String("outcome", "found"))
			case 3:
				sp.SetErr(errors.New("boom"))
			case 4:
				sp.Set(trace.String("error", ""))
			default:
				sp.End()
			}
		}
		tr.Finish()
		td := tracer.Latest()
		got, gotOK := traceEntry(tr.Summary())
		want, wantOK := refTraceEntry(*td)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: entry %+v (%v), reference %+v (%v)", seed, got, gotOK, want, wantOK)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("seed %d: entry JSON %s, reference %s", seed, gotJSON, wantJSON)
		}
		if want.Detail["errSpans"] != nil {
			withErrs++
		}
	}
	if withErrs < 50 {
		t.Errorf("%d entries with error spans: the generator lost its coverage", withErrs)
	}
}
