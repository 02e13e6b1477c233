// Package views implements maintenance of recursive stream views with
// provenance, the stream-engine capability the paper highlights for
// transitive-closure queries ("computation of neighborhoods and paths", §3;
// ref [11], Liu et al., ICDE'09).
//
// A View is a linear recursive query
//
//	V = lfp( Base ∪ π(V ⋈ Edge) )
//
// maintained incrementally under insertions and deletions on both inputs.
// Every derivation discovered is recorded as provenance: tuple t carries
// the set of (view-parent, edge-parent) pairs that produce it. Insertions
// run semi-naive evaluation. Deletions run provenance-guided DRed: the
// affected downward closure is found by walking provenance (no joins), and
// re-derivation consults the recorded alternative derivations rather than
// re-running the query — including correctly retracting cyclically
// self-supporting tuples, where simple derivation counting is wrong.
//
// Facts and edges are identified by 64-bit hashes of their canonical key
// with collision buckets verified by EqualVals — no key strings are
// materialized — and the provenance graph links *fact / *edge pointers
// directly, so maintenance allocates only when a genuinely new tuple
// enters the view.
package views

import (
	"fmt"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Config defines one linear recursive view.
type Config struct {
	// Schema is the view's (and the base input's) schema.
	Schema *data.Schema
	// EdgeSchema is the schema of the relation joined in the recursive rule.
	EdgeSchema *data.Schema
	// ViewKey and EdgeKey are the equi-join columns of the recursive rule
	// (V.ViewKey = E.EdgeKey), equal length.
	ViewKey, EdgeKey []string
	// Residual is an optional extra predicate over Concat(Schema, EdgeSchema).
	Residual expr.Expr
	// Project maps Concat(Schema, EdgeSchema) back to Schema (same arity).
	Project []stream.ProjectItem
	// MaxDepth bounds recursion depth (number of recursive steps from a
	// base fact); 0 means unbounded. Required when the projection
	// manufactures unboundedly many values on cyclic data (e.g. summed
	// distances or concatenated paths).
	MaxDepth int
}

// deriv records one firing of the recursive rule by its antecedents.
type deriv struct {
	vParent *fact
	eParent *edge
}

type fact struct {
	t        data.Tuple
	hash     uint64 // full-key identity hash
	jkHash   uint64 // join-key hash over the view key columns
	baseMult int
	derivs   map[deriv]struct{}
	depth    int
	children map[*fact]struct{} // facts derived with this fact as view parent
	live     bool
}

type edge struct {
	t        data.Tuple
	hash     uint64 // full-key identity hash
	jkHash   uint64 // join-key hash over the edge key columns
	mult     int
	children map[*fact]struct{} // facts derived with this edge
	live     bool
}

// testHashMask narrows identity and join-key hashes; tests set it to 0 to
// force every tuple into one collision bucket.
var testHashMask = ^uint64(0)

// indexHash is the hash the view files facts and edges under, by identity
// (idx nil) and by join key: the index hash of t's values at idx, narrowed
// by testHashMask.
func indexHash(t data.Tuple, idx []int) uint64 { return data.Hasher{}.Index(t, idx) & testHashMask }

// View is a maintained recursive view.
type View struct {
	cfg      Config
	joined   *data.Schema
	vKeyIdx  []int
	eKeyIdx  []int
	residual *expr.Compiled
	project  []*expr.Compiled
	out      stream.Operator
	facts    map[uint64][]*fact // identity hash -> facts (EqualVals-verified)
	vIdx     map[uint64][]*fact // view join-key hash -> facts
	edges    map[uint64][]*edge // identity hash -> edges
	eIdx     map[uint64][]*edge // edge join-key hash -> edges
	nFacts   int
	// scratch buffers for the rule firing hot path: the joined tuple and
	// the projected child are built here and cloned only when a new fact
	// is actually inserted.
	joinScratch []data.Value
	projScratch []data.Value
	stats       Stats
	baseIn      baseInput
	edgeIn      edgeInput
	slot        stream.Slot // emit's batch of one
}

// Stats counts maintenance work, the E6 efficiency metric.
type Stats struct {
	// DerivationsTried counts rule firings attempted.
	DerivationsTried int64
	// TuplesTouched counts fact insert/delete/resurrect operations.
	TuplesTouched int64
	// Emitted counts deltas pushed downstream.
	Emitted int64
}

// New builds a view delivering its output deltas to out.
func New(cfg Config, out stream.Operator) (*View, error) {
	if len(cfg.ViewKey) != len(cfg.EdgeKey) {
		return nil, fmt.Errorf("views: join key arity mismatch")
	}
	if len(cfg.Project) != cfg.Schema.Arity() {
		return nil, fmt.Errorf("views: projection arity %d != view arity %d",
			len(cfg.Project), cfg.Schema.Arity())
	}
	v := &View{
		cfg:    cfg,
		joined: cfg.Schema.Concat(cfg.EdgeSchema),
		out:    out,
		facts:  map[uint64][]*fact{},
		vIdx:   map[uint64][]*fact{},
		edges:  map[uint64][]*edge{},
		eIdx:   map[uint64][]*edge{},
	}
	// Key index slices stay non-nil: indexHash(t, nil) means "all columns".
	v.vKeyIdx = make([]int, 0, len(cfg.ViewKey))
	v.eKeyIdx = make([]int, 0, len(cfg.EdgeKey))
	for _, c := range cfg.ViewKey {
		i, err := cfg.Schema.ColIndex(c)
		if err != nil {
			return nil, err
		}
		v.vKeyIdx = append(v.vKeyIdx, i)
	}
	for _, c := range cfg.EdgeKey {
		i, err := cfg.EdgeSchema.ColIndex(c)
		if err != nil {
			return nil, err
		}
		v.eKeyIdx = append(v.eKeyIdx, i)
	}
	if cfg.Residual != nil {
		c, err := expr.Bind(cfg.Residual, v.joined)
		if err != nil {
			return nil, err
		}
		v.residual = c
	}
	for _, it := range cfg.Project {
		c, err := expr.Bind(it.Expr, v.joined)
		if err != nil {
			return nil, err
		}
		v.project = append(v.project, c)
	}
	v.baseIn = baseInput{v}
	v.edgeIn = edgeInput{v}
	return v, nil
}

// BaseInput accepts deltas of base facts (view schema).
func (v *View) BaseInput() stream.Operator { return &v.baseIn }

// EdgeInput accepts deltas of the joined relation (edge schema).
func (v *View) EdgeInput() stream.Operator { return &v.edgeIn }

// Schema returns the view schema.
func (v *View) Schema() *data.Schema { return v.cfg.Schema }

// Stats returns the maintenance work counters.
func (v *View) Stats() Stats { return v.stats }

// Len returns the current number of view tuples.
func (v *View) Len() int { return v.nFacts }

// findFact resolves a tuple to its live fact, verifying hash-bucket
// candidates with EqualVals.
func (v *View) findFact(t data.Tuple, h uint64) *fact {
	for _, f := range v.facts[h] {
		if f.t.EqualVals(t) {
			return f
		}
	}
	return nil
}

// findEdge is findFact for edges.
func (v *View) findEdge(t data.Tuple, h uint64) *edge {
	for _, e := range v.edges[h] {
		if e.t.EqualVals(t) {
			return e
		}
	}
	return nil
}

type baseInput struct{ v *View }

func (b *baseInput) Schema() *data.Schema { return b.v.cfg.Schema }
func (b *baseInput) Push(t data.Tuple)    { b.PushBatch([]data.Tuple{t}) }

// PushBatch implements stream.Operator: maintenance is per tuple (each
// insert or delete runs its own fixpoint), but accepting the batch keeps
// upstream batch edges (table loads, sharded exchanges) on one call.
func (b *baseInput) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		if t.Op == data.Delete {
			b.v.deleteBase(t)
		} else {
			b.v.insertBase(t)
		}
	}
}

type edgeInput struct{ v *View }

func (e *edgeInput) Schema() *data.Schema { return e.v.cfg.EdgeSchema }
func (e *edgeInput) Push(t data.Tuple)    { e.PushBatch([]data.Tuple{t}) }

// PushBatch implements stream.Operator (see baseInput.PushBatch).
func (e *edgeInput) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		if t.Op == data.Delete {
			e.v.deleteEdge(t)
		} else {
			e.v.insertEdge(t)
		}
	}
}

// --- insertion ---------------------------------------------------------

func (v *View) insertBase(t data.Tuple) {
	h := indexHash(t, nil)
	f := v.findFact(t, h)
	fresh := f == nil
	if fresh {
		f = &fact{t: t.Clone(), hash: h, derivs: map[deriv]struct{}{}, live: true}
		f.t.Op = data.Insert
		f.jkHash = indexHash(f.t, v.vKeyIdx)
		v.facts[h] = append(v.facts[h], f)
		v.vIdx[f.jkHash] = append(v.vIdx[f.jkHash], f)
		v.nFacts++
	}
	f.baseMult++
	v.stats.TuplesTouched++
	if fresh {
		v.emit(f.t, data.Insert, t.TS)
		v.expand([]*fact{f}, t.TS)
	} else if f.depth > 0 {
		// Base support shortens the depth to zero; re-expand under MaxDepth.
		f.depth = 0
		v.expand([]*fact{f}, t.TS)
	}
}

func (v *View) insertEdge(t data.Tuple) {
	h := indexHash(t, nil)
	e := v.findEdge(t, h)
	if e == nil {
		e = &edge{t: t.Clone(), hash: h, live: true}
		e.t.Op = data.Insert
		e.jkHash = indexHash(e.t, v.eKeyIdx)
		v.edges[h] = append(v.edges[h], e)
		v.eIdx[e.jkHash] = append(v.eIdx[e.jkHash], e)
	}
	e.mult++
	if e.mult > 1 {
		return
	}
	// Probe existing view facts joining with the new edge.
	var work []*fact
	for _, f := range v.vIdx[e.jkHash] {
		if nf, ok := v.deriveOne(f, e, t.TS); ok {
			work = append(work, nf)
		}
	}
	v.expand(work, t.TS)
}

// expand runs semi-naive derivation from the given newly (re)inserted
// facts.
func (v *View) expand(work []*fact, ts vtime.Time) {
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		if !f.live {
			continue
		}
		for _, e := range v.eIdx[f.jkHash] {
			if nf, ok := v.deriveOne(f, e, ts); ok {
				work = append(work, nf)
			}
		}
	}
}

// deriveOne fires the recursive rule for one (view fact, edge) pair.
// It returns the child fact and whether the child is new or had its depth
// improved (requiring further expansion).
func (v *View) deriveOne(f *fact, e *edge, ts vtime.Time) (*fact, bool) {
	if f == nil || e == nil || !f.live || !e.live {
		return nil, false
	}
	if v.cfg.MaxDepth > 0 && f.depth+1 > v.cfg.MaxDepth {
		return nil, false
	}
	if !f.t.EqualOn(v.vKeyIdx, e.t, v.eKeyIdx) {
		return nil, false // join-key hash collision, not a real partner
	}
	v.stats.DerivationsTried++
	joined := f.t.ConcatInto(v.joinScratch, e.t)
	v.joinScratch = joined.Vals[:0]
	joined.Op = data.Insert
	if v.residual != nil && !v.residual.EvalBool(joined) {
		return nil, false
	}
	vals := v.projScratch[:0]
	if cap(vals) < len(v.project) {
		vals = make([]data.Value, 0, len(v.project))
	}
	for _, p := range v.project {
		vals = append(vals, p.Eval(joined))
	}
	v.projScratch = vals[:0]
	child := data.Tuple{Vals: vals, TS: ts, Op: data.Insert}
	ch := indexHash(child, nil)
	d := deriv{vParent: f, eParent: e}
	if cf := v.findFact(child, ch); cf != nil {
		if cf == f {
			return nil, false // self-derivation carries no information
		}
		if _, dup := cf.derivs[d]; dup {
			return nil, false
		}
		cf.derivs[d] = struct{}{}
		v.link(f, e, cf)
		if f.depth+1 < cf.depth {
			cf.depth = f.depth + 1
			return cf, true // depth improved: may enable deeper derivations
		}
		return nil, false
	}
	cf := &fact{
		t:      child.Clone(),
		hash:   ch,
		derivs: map[deriv]struct{}{d: {}},
		depth:  f.depth + 1,
		live:   true,
	}
	cf.jkHash = indexHash(cf.t, v.vKeyIdx)
	v.facts[ch] = append(v.facts[ch], cf)
	v.vIdx[cf.jkHash] = append(v.vIdx[cf.jkHash], cf)
	v.nFacts++
	v.link(f, e, cf)
	v.stats.TuplesTouched++
	v.emit(cf.t, data.Insert, ts)
	return cf, true
}

func (v *View) link(f *fact, e *edge, child *fact) {
	if f.children == nil {
		f.children = map[*fact]struct{}{}
	}
	f.children[child] = struct{}{}
	if e.children == nil {
		e.children = map[*fact]struct{}{}
	}
	e.children[child] = struct{}{}
}

// --- deletion (provenance-guided DRed) ---------------------------------

func (v *View) deleteBase(t data.Tuple) {
	f := v.findFact(t, indexHash(t, nil))
	if f == nil || f.baseMult == 0 {
		return
	}
	f.baseMult--
	v.stats.TuplesTouched++
	if f.baseMult > 0 {
		return
	}
	v.dred(map[*fact]struct{}{f: {}}, t.TS)
}

func (v *View) deleteEdge(t data.Tuple) {
	h := indexHash(t, nil)
	e := v.findEdge(t, h)
	if e == nil {
		return
	}
	e.mult--
	if e.mult > 0 {
		return
	}
	// Remove the edge and every derivation that used it.
	removeFrom(v.eIdx, e.jkHash, e)
	removeFrom(v.edges, e.hash, e)
	e.live = false
	suspects := map[*fact]struct{}{}
	for cf := range e.children {
		if !cf.live {
			continue
		}
		for d := range cf.derivs {
			if d.eParent == e {
				delete(cf.derivs, d)
			}
		}
		suspects[cf] = struct{}{}
	}
	e.children = nil
	v.dred(suspects, t.TS)
}

// removeFrom deletes x from the bucket at h, zeroing the vacated tail slot
// so the backing array does not retain it, and dropping empty buckets.
func removeFrom[T comparable](m map[uint64][]T, h uint64, x T) {
	bucket := m[h]
	for i, cand := range bucket {
		if cand == x {
			copy(bucket[i:], bucket[i+1:])
			var zero T
			bucket[len(bucket)-1] = zero
			if len(bucket) == 1 {
				delete(m, h)
			} else {
				m[h] = bucket[:len(bucket)-1]
			}
			return
		}
	}
}

// dred deletes the downward provenance closure of the seed facts, then
// resurrects every suspect that retains a valid derivation (or base
// support), emitting retractions only for tuples that are truly gone.
func (v *View) dred(seeds map[*fact]struct{}, ts vtime.Time) {
	// Phase 1: overestimate — everything reachable from the seeds through
	// provenance edges. Required for cyclic support: two tuples deriving
	// each other must both fall, even though their derivation sets are
	// non-empty.
	suspect := map[*fact]struct{}{}
	stack := make([]*fact, 0, len(seeds))
	for f := range seeds {
		if f.live && f.baseMult == 0 {
			// Facts that still have base support stand on their own and do
			// not fall; their subtree is safe too.
			suspect[f] = struct{}{}
			stack = append(stack, f)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for cf := range f.children {
			if _, seen := suspect[cf]; seen {
				continue
			}
			if cf.live && cf.baseMult == 0 {
				suspect[cf] = struct{}{}
				stack = append(stack, cf)
			}
		}
	}

	// Phase 2: resurrect suspects with a surviving derivation, in rounds,
	// since resurrecting one fact can re-validate derivations of another.
	alive := func(f *fact) bool {
		if _, isSuspect := suspect[f]; isSuspect {
			return false
		}
		return f.live
	}
	changed := true
	for changed {
		changed = false
		for f := range suspect {
			best := -1
			for d := range f.derivs {
				if d.vParent == nil || !alive(d.vParent) {
					continue
				}
				if d.eParent == nil || !d.eParent.live {
					continue
				}
				nd := d.vParent.depth + 1
				if v.cfg.MaxDepth > 0 && nd > v.cfg.MaxDepth {
					continue
				}
				if best < 0 || nd < best {
					best = nd
				}
			}
			if best >= 0 {
				f.depth = best
				delete(suspect, f)
				v.stats.TuplesTouched++
				changed = true
			}
		}
	}

	// Phase 3: truly delete the rest.
	for f := range suspect {
		removeFrom(v.vIdx, f.jkHash, f)
		removeFrom(v.facts, f.hash, f)
		f.live = false
		v.nFacts--
		v.stats.TuplesTouched++
		v.emit(f.t, data.Delete, ts)
	}
	// Purge dangling provenance references to the deleted facts, and
	// unlink them from surviving parents so children sets stay bounded
	// under fact churn.
	for f := range suspect {
		for d := range f.derivs {
			if d.vParent != nil && d.vParent.live {
				delete(d.vParent.children, f)
			}
			if d.eParent != nil && d.eParent.live {
				delete(d.eParent.children, f)
			}
		}
		for cf := range f.children {
			if !cf.live {
				continue
			}
			for d := range cf.derivs {
				if d.vParent == f {
					delete(cf.derivs, d)
				}
			}
		}
		f.children = nil
	}
}

func (v *View) emit(t data.Tuple, op data.Op, ts vtime.Time) {
	out := t.Clone()
	out.Op = op
	out.TS = ts
	v.stats.Emitted++
	v.slot.Send(v.out, out)
}
