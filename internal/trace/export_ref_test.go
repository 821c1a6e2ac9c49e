package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// What follows, down to refTrace.export, is the span store as it stood
// while every attribute was boxed: Attr held its value as an any, a span
// kept the caller's attribute list and grew it on Set, and the export
// read the boxes into each span's map. It is kept verbatim, renamed only,
// as the oracle TestExportMatchesBoxedReference holds the unboxed store
// to. A reference trace is not published to a tracer; the test drives it.

type refAttr struct {
	Key   string
	Value any
}

func refString(key, value string) refAttr { return refAttr{Key: key, Value: value} }

func refInt(key string, value int64) refAttr { return refAttr{Key: key, Value: value} }

func refFloat(key string, value float64) refAttr { return refAttr{Key: key, Value: value} }

func refBool(key string, value bool) refAttr { return refAttr{Key: key, Value: value} }

type refSpan struct {
	tr     *refTrace
	id     int
	parent int // -1 for the root
	name   string
	start  time.Time
	end    time.Time
	attrs  []refAttr
}

func (s *refSpan) Child(name string, attrs ...refAttr) *refSpan {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s.id, name, attrs)
}

func (s *refSpan) Set(attrs ...refAttr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

func (s *refSpan) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Set(refString("error", err.Error()))
}

type refTrace struct {
	id      uint64
	ctx     Context
	name    string
	session string
	start   time.Time

	mu    sync.Mutex
	spans []*refSpan
}

func (tr *refTrace) newSpan(parent int, name string, attrs []refAttr) *refSpan {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sp := &refSpan{
		tr:     tr,
		id:     len(tr.spans),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	tr.spans = append(tr.spans, sp)
	return sp
}

// refStartCtx is the part of StartCtx that built the trace and its root.
func refStartCtx(id uint64, ctx Context, name, session string, attrs ...refAttr) *refTrace {
	tr := &refTrace{id: id, ctx: ctx, name: name, session: session, start: time.Now()}
	root := &refSpan{tr: tr, id: 0, parent: -1, name: name, start: tr.start, attrs: attrs}
	if session != "" {
		root.attrs = append(root.attrs, refString("session", session))
	}
	if ctx.ParentSpan != "" {
		root.attrs = append(root.attrs, refString("parentSpan", ctx.ParentSpan))
	}
	tr.spans = []*refSpan{root}
	return tr
}

func (tr *refTrace) export() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	td := TraceData{
		ID:         tr.id,
		TraceID:    tr.ctx.TraceID,
		ParentSpan: tr.ctx.ParentSpan,
		Name:       tr.name,
		Session:    tr.session,
		Start:      tr.start,
		Spans:      make([]SpanData, len(tr.spans)),
	}
	for i, sp := range tr.spans {
		end := sp.end
		if end.IsZero() {
			end = time.Now()
		}
		sd := SpanData{
			ID:       sp.id,
			Parent:   sp.parent,
			Name:     sp.name,
			OffsetMs: toMs(sp.start.Sub(tr.start)),
			DurMs:    toMs(end.Sub(sp.start)),
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				sd.Attrs[a.Key] = a.Value
			}
		}
		td.Spans[i] = sd
	}
	if len(td.Spans) > 0 {
		td.DurMs = td.Spans[0].DurMs
	}
	return td
}

// attrPair is one generated attribute in both representations.
type attrPair struct {
	attr Attr
	ref  refAttr
}

// randomAttr draws an attribute of any kind, from a small key set so that
// later values shadow earlier ones, with values that stress the encoders:
// empty and escaped strings, extreme and negative numbers.
func randomAttr(rng *rand.Rand) attrPair {
	key := []string{"node", "kind", "depth", "cost", "handoff", "error", "algorithm", "session"}[rng.Intn(8)]
	switch rng.Intn(4) {
	case 0:
		v := []string{"", "player", "tc0:MP3-WAV", "<&>\"quoted\"\n", "é"}[rng.Intn(5)]
		return attrPair{String(key, v), refString(key, v)}
	case 1:
		v := []int64{0, 1, -7, 300, math.MaxInt64, math.MinInt64}[rng.Intn(6)]
		return attrPair{Int(key, v), refInt(key, v)}
	case 2:
		v := []float64{0, 0.1, -2.5, 1e21, 1e-7, 123456.789}[rng.Intn(6)]
		return attrPair{Float(key, v), refFloat(key, v)}
	default:
		v := rng.Intn(2) == 0
		return attrPair{Bool(key, v), refBool(key, v)}
	}
}

func randomAttrs(rng *rand.Rand, n int) ([]Attr, []refAttr) {
	attrs, refs := make([]Attr, n), make([]refAttr, n)
	for i := range attrs {
		p := randomAttr(rng)
		attrs[i], refs[i] = p.attr, p.ref
	}
	return attrs, refs
}

// TestExportMatchesBoxedReference: over generated traces — root
// attributes with and without a session and a remote parent span, child
// spans at any depth, attributes of every kind set at creation and later,
// shadowed keys, errors, spans left open — the export of the unboxed
// store is the reference's: the same JSON the trace op sends, byte for
// byte, and the same Render text. Timestamps are copied from the real
// trace into the reference before exporting, since both read the clock:
// each reference span ends at the real one's start plus its duration.
func TestExportMatchesBoxedReference(t *testing.T) {
	tracer := NewTracer(4)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctx := Context{TraceID: fmt.Sprintf("%016x", seed)}
		if rng.Intn(2) == 0 {
			ctx.ParentSpan = "client-start"
		}
		session := []string{"", "s1"}[rng.Intn(2)]
		rootAttrs, rootRefs := randomAttrs(rng, rng.Intn(4))
		tr := tracer.StartCtx(ctx, "configure", session, rootAttrs...)
		ref := refStartCtx(tr.id, tr.ctx, "configure", session, rootRefs...)

		spans, refs := []*Span{tr.Root()}, []*refSpan{ref.spans[0]}
		for op := 0; op < 30; op++ {
			k := rng.Intn(len(spans))
			switch rng.Intn(5) {
			case 0, 1:
				attrs, rattrs := randomAttrs(rng, rng.Intn(6))
				name := []string{"compose", "discover", "correction", "distribute"}[rng.Intn(4)]
				spans = append(spans, spans[k].Child(name, attrs...))
				refs = append(refs, refs[k].Child(name, rattrs...))
			case 2:
				attrs, rattrs := randomAttrs(rng, 1+rng.Intn(3))
				spans[k].Set(attrs...)
				refs[k].Set(rattrs...)
			case 3:
				err := errors.New([]string{"boom", "", "no instance for \"x\""}[rng.Intn(3)])
				spans[k].SetErr(err)
				refs[k].SetErr(err)
			default:
				spans[k].End()
			}
		}
		if rng.Intn(4) > 0 {
			tr.Finish()
		}
		ref.start = tr.start
		for i, sp := range tr.spans {
			if sp.dur < 0 {
				// An open span's export reads the clock: end it in both.
				sp.dur = time.Hour
			}
			ref.spans[i].start, ref.spans[i].end = sp.start, sp.start.Add(sp.dur)
		}
		got, want := tr.export(), ref.export()
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("seed %d: export\n%s\nreference\n%s", seed, gotJSON, wantJSON)
		}
		if got.Render() != want.Render() {
			t.Fatalf("seed %d: render\n%s\nreference\n%s", seed, got.Render(), want.Render())
		}
	}
}
