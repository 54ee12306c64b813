package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// recordingObserver tags every OnRound/OnFinish call with its label so
// multiplexer ordering is visible.
type recordingObserver struct {
	label     string
	log       *[]string
	finishErr error
}

func (r *recordingObserver) OnRound(_ *Engine, rec RoundRecord) {
	if rec.Round == 1 {
		*r.log = append(*r.log, r.label+":round")
	}
}

func (r *recordingObserver) OnFinish(res *Result) error {
	*r.log = append(*r.log, r.label+":finish")
	return r.finishErr
}

func TestObserversCompose(t *testing.T) {
	if got := Observers(); got != nil {
		t.Errorf("Observers() = %v, want nil", got)
	}
	if got := Observers(nil, nil); got != nil {
		t.Errorf("Observers(nil, nil) = %v, want nil", got)
	}
	var log []string
	a := &recordingObserver{label: "a", log: &log}
	if got := Observers(nil, a); got != Observer(a) {
		t.Errorf("single observer not collapsed: %v", got)
	}
	b := &recordingObserver{label: "b", log: &log}
	c := &recordingObserver{label: "c", log: &log}
	multi := Observers(a, Observers(b, c)) // nested stacks flatten
	m, ok := multi.(MultiObserver)
	if !ok || len(m) != 3 {
		t.Fatalf("composed observer = %#v, want flat MultiObserver of 3", multi)
	}
}

func TestMultiObserverOrderAndFinish(t *testing.T) {
	var log []string
	a := &recordingObserver{label: "a", log: &log}
	b := &recordingObserver{label: "b", log: &log, finishErr: errors.New("b failed")}
	c := &recordingObserver{label: "c", log: &log}
	e, err := New(Config{Params: testParams(), Rounds: 5, Seed: 1, Observer: Observers(a, b, c)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "b failed") {
		t.Fatalf("finish error not surfaced: %v", err)
	}
	want := []string{"a:round", "b:round", "c:round", "a:finish", "b:finish", "c:finish"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v — observers must run in attach order, all finishers despite the failure", log, want)
		}
	}
}

func TestTraceWriterEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	e, err := New(Config{Params: testParams(), Rounds: 9, Seed: 3, Observer: tw})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []RoundRecord
	for sc.Scan() {
		var rec RoundRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", len(lines)+1, err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 9 {
		t.Fatalf("trace has %d lines, want 9", len(lines))
	}
	for i, rec := range lines {
		if rec != res.Records[i] {
			t.Fatalf("trace line %d = %+v, want %+v", i, rec, res.Records[i])
		}
	}
}

// failWriter fails after the first write, exercising the sticky error.
type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestTraceWriterSurfacesWriteError(t *testing.T) {
	tw := NewTraceWriter(&failWriter{})
	e, err := New(Config{Params: testParams(), Rounds: 5, Seed: 3, Observer: tw})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("write error not surfaced: %v", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const stopAt = 50
	e, err := New(Config{
		Params: testParams(), Rounds: 100000, Seed: 4,
		Observer: ObserverFunc(func(_ *Engine, rec RoundRecord) {
			if rec.Round == stopAt {
				cancel()
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("partial flag not set: %+v", res)
	}
	// The engine must stop before the next round: the cancel lands
	// during round stopAt's observer call, so exactly stopAt rounds ran.
	if len(res.Records) != stopAt {
		t.Errorf("executed %d rounds after cancelling at %d", len(res.Records), stopAt)
	}
	if res.FinalTips() == nil {
		t.Error("partial result missing final tips")
	}
}

func TestRunContextFinishRunsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var log []string
	fin := &recordingObserver{label: "fin", log: &log}
	e, err := New(Config{
		Params: testParams(), Rounds: 1000, Seed: 5,
		Observer: Observers(ObserverFunc(func(_ *Engine, rec RoundRecord) {
			if rec.Round == 3 {
				cancel()
			}
		}), fin),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(log) == 0 || log[len(log)-1] != "fin:finish" {
		t.Errorf("OnFinish skipped on cancellation: %v", log)
	}
}

func TestAutoShardsConfigResolves(t *testing.T) {
	// The deprecated AutoShards value must still build and run.
	cfg := Config{Params: testParams(), Rounds: 200, Seed: 6, Shards: AutoShards}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
