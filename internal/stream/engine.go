package stream

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// Engine is one stream-engine node (a PC in the paper's architecture). It
// owns named input streams, the operator pipelines subscribed to them, and
// the display sinks that OUTPUT TO routes to.
//
// Execution is synchronous push: a PushBatch drives the batch through every
// subscribed pipeline before returning, which keeps single-node tests
// deterministic. Hot-path dispatch takes no engine lock — subscriber and
// advancer lists are copy-on-write, so pipelines on different inputs never
// serialize on the engine. Intra-pipeline parallelism comes from the
// partition exchange layer (shard.go), whose replicas run in this process
// or on shard workers reached over the mux (remote.go), each merging its
// results back into this engine from its own goroutine.
type Engine struct {
	mu       sync.Mutex // guards registries and copy-on-write writers
	name     string
	clock    vtime.Clock
	inputs   map[string]*Input
	displays map[string]*display
	advs     atomic.Pointer[[]Advancer]
}

// display is one registered display endpoint: the materialized view plus
// the original-case name it was first registered under (lookups are
// case-insensitive, listings report the registered name).
type display struct {
	name string
	mat  *Materialize
}

// NewEngine creates a named engine node.
func NewEngine(name string, clock vtime.Clock) *Engine {
	if clock == nil {
		clock = vtime.NewWallClock()
	}
	return &Engine{
		name:     name,
		clock:    clock,
		inputs:   map[string]*Input{},
		displays: map[string]*display{},
	}
}

// Name returns the node name.
func (e *Engine) Name() string { return e.name }

// Clock returns the engine clock.
func (e *Engine) Clock() vtime.Clock { return e.clock }

// Input is a named stream entry point: a Fanout (which supplies Subscribe,
// Unsubscribe, Subscribers, Schema and the dispatch) that also stamps zero
// timestamps with the engine clock.
type Input struct {
	Fanout
	name   string
	engine *Engine
}

// Register declares a named input stream. Duplicate names fail.
func (e *Engine) Register(name string, schema *data.Schema) (*Input, error) {
	key := strings.ToLower(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.inputs[key]; dup {
		return nil, fmt.Errorf("stream: duplicate input %q", name)
	}
	in := &Input{Fanout: Fanout{schema: schema}, name: name, engine: e}
	e.inputs[key] = in
	return in, nil
}

// MustRegister registers a statically known input; panics on error.
func (e *Engine) MustRegister(name string, schema *data.Schema) *Input {
	in, err := e.Register(name, schema)
	if err != nil {
		panic(err)
	}
	return in
}

// Input resolves a registered input by name.
func (e *Engine) Input(name string) (*Input, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.inputs[strings.ToLower(name)]
	return in, ok
}

// Inputs lists registered input names, sorted.
func (e *Engine) Inputs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.inputs))
	for _, in := range e.inputs {
		out = append(out, in.name)
	}
	sort.Strings(out)
	return out
}

// Name returns the input's name.
func (in *Input) Name() string { return in.name }

// Push implements Operator.
func (in *Input) Push(t data.Tuple) { in.PushBatch([]data.Tuple{t}) }

// PushBatch injects a batch of tuples, driving all subscribed pipelines
// once per subscriber instead of once per tuple. Ownership is the Operator
// rule: the caller gives the pushed Vals away and may refill the slice
// afterwards. An Input is as often fed a batch someone else produced (a
// Fanout subscriber forwarding into a nested input) as one its caller
// built, so zero timestamps are stamped with the engine clock on a copy of
// the slice, taken only when there is one to stamp.
func (in *Input) PushBatch(ts []data.Tuple) {
	copied := false
	for i := range ts {
		if ts[i].TS != 0 {
			continue
		}
		if !copied {
			ts, copied = slices.Clone(ts), true
		}
		ts[i].TS = in.engine.clock.Now()
	}
	in.Fanout.PushBatch(ts)
}

// TrackWindow registers a window (or any Advancer) for clock ticks. The
// advancer list is copy-on-write like subscriber lists.
func (e *Engine) TrackWindow(a Advancer) {
	e.mu.Lock()
	var next []Advancer
	if cur := e.advs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, a)
	e.advs.Store(&next)
	e.mu.Unlock()
}

// UntrackWindow removes a tracked Advancer, reporting whether it was
// found — the symmetric detach Deployment.Close relies on so a stopped
// query's windows stop receiving ticks. Copy-on-write like TrackWindow: a
// concurrent Advance may deliver one last in-flight tick.
func (e *Engine) UntrackWindow(a Advancer) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.advs.Load()
	if cur == nil {
		return false
	}
	next := make([]Advancer, 0, len(*cur))
	removed := false
	for _, x := range *cur {
		if !removed && x == a {
			removed = true
			continue
		}
		next = append(next, x)
	}
	if removed {
		e.advs.Store(&next)
	}
	return removed
}

// Advancers reports the number of currently tracked Advancers; churn
// tests assert it returns to baseline after queries stop.
func (e *Engine) Advancers() int {
	if advs := e.advs.Load(); advs != nil {
		return len(*advs)
	}
	return 0
}

// Advance ticks every tracked window to the given instant, expiring state
// during stream silence.
func (e *Engine) Advance(now vtime.Time) {
	if advs := e.advs.Load(); advs != nil {
		for _, a := range *advs {
			a.Advance(now)
		}
	}
}

// Display returns (creating on first use) the materialized view behind a
// named display endpoint; OUTPUT TO d routes here. Lookups are
// case-insensitive. A nil schema is a pure lookup-or-create; a non-nil
// schema that conflicts with the existing display's (different arity or
// column types) is an error rather than a silently mismatched view.
func (e *Engine) Display(name string, schema *data.Schema) (*Materialize, error) {
	key := strings.ToLower(name)
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.displays[key]; ok {
		if schema != nil && !schemaCompatible(d.mat.Schema(), schema) {
			return nil, fmt.Errorf("stream: display %q has schema %s, conflicting with %s",
				d.name, d.mat.Schema(), schema)
		}
		return d.mat, nil
	}
	m := NewMaterialize(schema)
	e.displays[key] = &display{name: name, mat: m}
	return m, nil
}

// MustDisplay is Display for statically compatible schemas; panics on a
// schema conflict.
func (e *Engine) MustDisplay(name string, schema *data.Schema) *Materialize {
	m, err := e.Display(name, schema)
	if err != nil {
		panic(err)
	}
	return m
}

// schemaCompatible reports whether two display schemas describe the same
// physical rows: same arity, same column types position by position.
// Column names may differ (queries alias freely); values are positional.
func schemaCompatible(a, b *data.Schema) bool {
	if a == nil || b == nil {
		return true
	}
	if a.Arity() != b.Arity() {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i].Type != b.Cols[i].Type {
			return false
		}
	}
	return true
}

// Displays lists display names as registered (original case), sorted.
func (e *Engine) Displays() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.displays))
	for _, d := range e.displays {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}
