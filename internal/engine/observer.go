package engine

import (
	"encoding/json"
	"io"
)

// Observer receives the engine's per-round record stream. Observers are
// invoked on the engine's goroutine at the end of every round, after the
// round's record is final; they may inspect honest views through the
// engine but must not mutate the execution. Several observers compose
// through Observers — the consistency checker, metric recorders, trace
// writers, and user hooks all run side by side in one pass. On the
// fast-forward path a stack whose every member is a SpanObserver gets
// one call per quiet span instead (see SpanObserver); any other stack
// gets one OnRound call per round, skipped rounds included.
type Observer interface {
	// OnRound is called once per executed round.
	OnRound(e *Engine, rec RoundRecord)
}

// SpanObserver is the optional quiet-span extension of Observer. A
// quiet span is a run of rounds first..last that the fast-forward path
// crosses without stepping: nothing is delivered or mined, so every
// record field but Round is the same in each of them. When Run starts
// it decides once whether every flattened member of the observer stack
// implements SpanObserver. If so, each quiet span costs one
// OnQuietSpan call per member; if not, every member keeps its per-round
// OnRound calls, in order, exactly as without the hook.
type SpanObserver interface {
	Observer
	// OnQuietSpan must leave the observer exactly as the calls
	// OnRound(e, r) for r = first..last would, where each r is rec with
	// Round set to that round. rec carries the span's constant fields
	// (HonestMined and AdversaryMined are 0) with Round = last, the
	// round the engine stands at during the call.
	OnQuietSpan(e *Engine, rec RoundRecord, first, last int)
}

// FinishObserver is the optional finalization extension of Observer:
// OnFinish runs once after the last round — including a run cut short by
// context cancellation, with res.Partial set — and may surface a
// deferred error (e.g. a trace writer's I/O failure).
type FinishObserver interface {
	Observer
	// OnFinish is called once with the run's result.
	OnFinish(res *Result) error
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(e *Engine, rec RoundRecord)

// OnRound implements Observer.
func (f ObserverFunc) OnRound(e *Engine, rec RoundRecord) { f(e, rec) }

// MultiObserver fans the round stream out to several observers, in
// order. Construct with Observers, which flattens and drops nils.
type MultiObserver []Observer

// OnRound implements Observer by forwarding to every member.
func (m MultiObserver) OnRound(e *Engine, rec RoundRecord) {
	for _, o := range m {
		o.OnRound(e, rec)
	}
}

// OnFinish implements FinishObserver: every member implementing
// FinishObserver is finalized (all of them, even after a failure) and
// the first error is returned.
func (m MultiObserver) OnFinish(res *Result) error {
	var first error
	for _, o := range m {
		f, ok := o.(FinishObserver)
		if !ok {
			continue
		}
		if err := f.OnFinish(res); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// spanStack returns o as one SpanObserver when every flattened member
// of o implements the hook, and nil otherwise (or when o is nil).
func spanStack(o Observer) SpanObserver {
	switch v := o.(type) {
	case MultiObserver:
		fan := make(spanFanout, 0, len(v))
		for _, m := range v {
			s := spanStack(m)
			if s == nil {
				return nil
			}
			fan = append(fan, s)
		}
		return fan
	case SpanObserver:
		return v
	}
	return nil
}

// spanFanout is a MultiObserver whose members all implement
// SpanObserver.
type spanFanout []SpanObserver

// OnRound implements Observer by forwarding to every member.
func (f spanFanout) OnRound(e *Engine, rec RoundRecord) {
	for _, o := range f {
		o.OnRound(e, rec)
	}
}

// OnQuietSpan implements SpanObserver by forwarding to every member.
func (f spanFanout) OnQuietSpan(e *Engine, rec RoundRecord, first, last int) {
	for _, o := range f {
		o.OnQuietSpan(e, rec, first, last)
	}
}

// Observers composes observers into one: nils are dropped, nested
// MultiObservers are flattened, and the degenerate cases collapse (no
// observers → nil, one observer → itself).
func Observers(obs ...Observer) Observer {
	var flat MultiObserver
	for _, o := range obs {
		switch v := o.(type) {
		case nil:
			continue
		case MultiObserver:
			flat = append(flat, v...)
		default:
			flat = append(flat, o)
		}
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	default:
		return flat
	}
}

// TraceWriter is an Observer streaming every RoundRecord as one JSON
// line — the round-trace interchange for external analysis. Encoding
// errors are sticky: the first one stops further writes and is reported
// by OnFinish.
type TraceWriter struct {
	enc *json.Encoder
	err error
}

// NewTraceWriter returns a JSON-lines round-trace observer writing to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// OnRound implements Observer.
func (t *TraceWriter) OnRound(_ *Engine, rec RoundRecord) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(rec)
}

// OnFinish implements FinishObserver, surfacing the first write error.
func (t *TraceWriter) OnFinish(*Result) error { return t.err }
