package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
)

// This file is the multi-query sharing layer: many standing queries over
// the same building ask overlapping questions (the paper's workload —
// "where is a free lab PC", per-floor rollups), and compiling each one a
// private scan+window+select pipeline makes the engine's per-tuple cost
// linear in the number of queries. Sharing canonicalizes the compiled
// prefix of every serial plan — the scan, its window, and any stack of
// selections directly above it — and lets N deployments subscribe to one
// physical operator chain, fanning out (stream.Fanout) only where the
// plans diverge. Chains are refcounted: the last Deployment.Close of the
// last query on a chain detaches it from the engine (Input.Unsubscribe,
// Engine.UntrackWindow) and frees its window state.
//
// Chains layer: the base chain is scan+window, and each distinct
// selection predicate stacks a derived chain (its own Fanout) on the
// parent's fan-out point, so queries that share the scan and window but
// diverge at the predicate still share the window — the dominant state and
// maintenance cost. Sibling layers share more than that: a fan-out point
// with derived layers feeds them all through one stream.GroupedFilter, each
// layer a member, so a tuple is matched once for every sibling predicate
// (one probe per column for comparisons with constants) instead of once per
// layer, and each layer's Fanout still receives exactly what a Filter of its
// own would have forwarded, in the same order.
//
// Canonical keys are positional: predicates are rendered with column
// references rewritten to column indexes of the scan schema, so two
// queries aliasing the same source differently (`temps AS t1` vs `AS
// t2`) still share, and a selection is keyed by its sorted conjuncts, so
// the order its factors were written in does not matter either. Tuples are
// positional (data.Tuple.Vals), which is what makes one physical chain's
// output valid input for every subscriber regardless of its alias bindings
// — and read-only once pushed (stream.Operator), which is what lets every
// subscriber be handed the same ones.
//
// Results share too, one level up: deployments whose whole plans are the
// same canonical Project?(Select*(Scan)) over a windowed chain, naming no
// display (OUTPUT TO), form a result group — one stream.Materialize store
// subscribed to the selection layer's fan-out point and keyed by the
// layer's key plus the positional canonical form of each projection item.
// When every item is a bare column, the store takes the layer's tuples
// itself and keeps those columns (stream.Materialize.KeepColumns, see
// resultFeed); a computed item puts a stream.Project in front of it. Every
// member keeps a Deployment.Result of its own: a view of the group's store
// under the member's own schema, so column names, ORDER BY and LIMIT stay
// per query. Closing a member freezes its view into a private copy (a
// stopped query keeps its last state and no longer updates); the last
// member's Close releases the group's chain attachment.
// Only windowed chains group results: a late attacher to an unwindowed chain
// starts empty, so its result legitimately differs from an earlier identical
// query's, and it keeps a suffix of its own.
//
// Semantics: a query attaching to a chain whose window is already
// populated warm-starts — the window's current contents replay into the
// query's divergent suffix as insertions (filtered through the chain's
// predicates), so the later expiry deletions the shared window emits
// always retract tuples the suffix has seen. A freshly attached query
// therefore sees the current window contents where a private pipeline
// would have started empty; once those rows expire the two are
// indistinguishable. A member joining an existing result group skips warm
// start: the group's store already holds project(filter(window)), which is
// what a warm start would build. Attach and release follow the engine's
// deploy-time contract: callers must not be pushing the affected input
// concurrently.
type Sharing struct {
	eng *stream.Engine

	mu     sync.Mutex
	chains map[string]*sharedChain
	// results holds the live result groups by key (see tryAttachResult).
	results map[string]*sharedResult
	// pending holds per-chain window states decoded from a coordinator
	// snapshot, keyed by canonical chain key. ensureBase consumes an entry
	// when it builds a fresh base chain during restore, so the rebuilt
	// window resumes exactly where the saved one stopped. Entries never
	// touch chains that already exist live.
	pending map[string][]byte
}

// NewSharing creates an empty sharing registry over one engine. It is the
// Sharing of the Host that names the same engine (core.Config.SharedPrefixes
// builds both for a whole runtime), so every compile on that host shares
// through the one registry.
func NewSharing(eng *stream.Engine) *Sharing {
	return &Sharing{eng: eng, chains: map[string]*sharedChain{}, results: map[string]*sharedResult{}}
}

// sharedChain is one physical prefix layer: the base scan+window, or one
// selection stacked on a parent chain. refs counts direct query
// attachments plus child chains; at zero the chain detaches.
type sharedChain struct {
	key    string
	parent *sharedChain
	fan    *stream.Fanout
	// head feeds a base chain: the window (or the fan itself, unwindowed)
	// subscribed to the engine input. A derived chain is fed as a member of
	// its parent's sel.
	head stream.Operator
	win  *stream.Window // base chain's window; nil when unwindowed
	in   *stream.Input  // base chain's engine input
	pred *expr.Compiled // derived chain's predicate
	// sel is the grouped selection on fan feeding every derived chain
	// stacked on this one; nil while there is none.
	sel  *stream.GroupedFilter
	refs int
}

// Stats reports the live chain count (prefix layers; result groups are not
// chains) and the total number of query-side attachments: fan-out
// subscriptions that are not grouped selections feeding child chains, with a
// result group counting once per member deployment.
func (s *Sharing) Stats() (chains, attached int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.chains {
		attached += ch.fan.Subscribers()
		if ch.sel != nil {
			attached--
		}
	}
	for _, r := range s.results {
		attached += r.members - 1
	}
	return len(s.chains), attached
}

// CaptureChains snapshots the window state of every base chain, keyed by
// the chain's canonical key. Derived layers (filter stacks) are stateless
// and unwindowed base chains carry nothing replayable, so one entry per
// windowed base chain captures all shared state — once per chain, however
// many deployments share it. Callers must hold the engine quiescent (the
// same contract as Coordinator.Save's checkpoint barrier).
func (s *Sharing) CaptureChains() (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.chains))
	for key, ch := range s.chains {
		if ch.parent != nil || ch.win == nil {
			continue
		}
		st, err := stream.EncodeCheckpoint([]stream.Checkpointer{ch.win})
		if err != nil {
			return nil, fmt.Errorf("plan: capture shared chain %q: %w", key, err)
		}
		out[key] = st
	}
	return out, nil
}

// primeRestore stages snapshotted chain states for consumption by
// ensureBase during a coordinator Restore. Pair with finishRestore.
func (s *Sharing) primeRestore(states map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = states
}

// finishRestore drops any staged chain states the restore did not consume
// (chains whose deployments failed to rehydrate, or that were already
// live).
func (s *Sharing) finishRestore() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = nil
}

// shareablePrefix decomposes a subtree of the form Select*(Scan) over a
// non-table source into its scan and predicate stack (innermost — applied
// first — leading). Any other shape is not a shareable prefix.
func shareablePrefix(n Node) (*Scan, []expr.Expr, bool) {
	var preds []expr.Expr
	for {
		switch x := n.(type) {
		case *Select:
			preds = append(preds, x.Pred)
			n = x.In
		case *Scan:
			if x.IsTable {
				return nil, nil, false
			}
			// reverse: preds were collected outermost-first
			for i, j := 0, len(preds)-1; i < j; i, j = i+1, j-1 {
				preds[i], preds[j] = preds[j], preds[i]
			}
			return x, preds, true
		default:
			return nil, nil, false
		}
	}
}

// prefixKeys renders the canonical key of every layer of a shareable prefix,
// the base chain's first. It reports false when a predicate does not
// canonicalize (no sharing; the private compile path will surface any real
// error).
func prefixKeys(scan *Scan, preds []expr.Expr) ([]string, bool) {
	key := canonScanKey(scan)
	keys := append(make([]string, 0, len(preds)+1), key)
	for _, p := range preds {
		c, ok := canonSelection(p, scan.Schema())
		if !ok {
			return nil, false
		}
		key += "|p:" + c
		keys = append(keys, key)
	}
	return keys, true
}

// canonScanKey renders the canonical identity of a scan+window prefix:
// the engine input (case-insensitive) and the window shape. Aliases and
// rate estimates are presentation, not physical identity.
func canonScanKey(x *Scan) string {
	w := windowFor(x.Window)
	wk := "none"
	if w != nil {
		switch w.kind {
		case sql.WindowRows:
			wk = fmt.Sprintf("rows:%d", w.rows)
		case sql.WindowNow:
			wk = "now"
		default:
			wk = fmt.Sprintf("range:%d:%d", w.rng, w.slide)
		}
	}
	return fmt.Sprintf("in:%s|arity:%d|w:%s", strings.ToLower(x.Input), x.Schema().Arity(), wk)
}

// canonExpr renders an expression with column references rewritten to
// positional indexes of the scan schema, so predicates over differently
// aliased scans of one source canonicalize identically. Reports false
// for references the schema cannot resolve unambiguously (no sharing,
// the private compile path will surface any real error).
func canonExpr(e expr.Expr, s *data.Schema) (string, bool) {
	switch x := e.(type) {
	case expr.Col:
		i, err := s.ColIndex(x.Ref)
		if err != nil {
			return "", false
		}
		return fmt.Sprintf("#%d", i), true
	case expr.Lit:
		return fmt.Sprintf("%d:%s", x.V.T, x.String()), true
	case expr.Bin:
		l, ok := canonExpr(x.L, s)
		if !ok {
			return "", false
		}
		r, ok := canonExpr(x.R, s)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("(%s %s %s)", l, x.Op, r), true
	case expr.Un:
		in, ok := canonExpr(x.X, s)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("(u%d %s)", x.Op, in), true
	case expr.IsNull:
		in, ok := canonExpr(x.X, s)
		if !ok {
			return "", false
		}
		if x.Neg {
			return fmt.Sprintf("(%s NOTNULL)", in), true
		}
		return fmt.Sprintf("(%s ISNULL)", in), true
	case expr.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			c, ok := canonExpr(a, s)
			if !ok {
				return "", false
			}
			args[i] = c
		}
		return fmt.Sprintf("%s(%s)", strings.ToUpper(x.Name), strings.Join(args, ",")), true
	}
	return "", false
}

// canonSelection renders a selection as its sorted, deduplicated canonical
// conjuncts, so neither the order a WHERE's factors were written in nor a
// factor repeated (as plans restored from older snapshots carry them) decides
// which chain the query shares: the filter a chain runs asks only whether all
// of them are TRUE.
func canonSelection(p expr.Expr, s *data.Schema) (string, bool) {
	factors := expr.Conjuncts(p)
	keys := make([]string, len(factors))
	for i, f := range factors {
		c, ok := canonExpr(f, s)
		if !ok {
			return "", false
		}
		keys[i] = c
	}
	sort.Strings(keys)
	return strings.Join(slices.Compact(keys), " AND "), true
}

// tryAttach attaches out (the query's compiled divergent suffix) to the
// shared chain for n's prefix, creating chain layers as needed. It
// reports handled=false when n is not a shareable prefix — the caller
// compiles privately. On handled=true the subtree is fully wired (or err
// is the compile error) and the attachment is recorded on dep for
// release at Close. restoring skips the warm-start catch-up: a suffix
// whose state a coordinator snapshot is about to restore has already
// seen the window's contents, so replaying them would double-count.
func (s *Sharing) tryAttach(n Node, out stream.Operator, dep *Deployment, restoring bool) (handled bool, err error) {
	scan, preds, ok := shareablePrefix(n)
	if !ok {
		return false, nil
	}
	keys, ok := prefixKeys(scan, preds)
	if !ok {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, err := s.attachLocked(scan, preds, keys, out, restoring)
	if err != nil {
		return true, err
	}
	dep.Inputs = append(dep.Inputs, scan.Input)
	dep.shared = append(dep.shared, sharedAttach{s: s, ch: ch, out: out})
	return true, nil
}

// attachLocked subscribes out to the chain keyed keys[len(keys)-1], building
// the missing layers from the base up, and takes a reference on it. Unless
// restoring, out is first warm-started: the window's current contents
// (filtered through the chain's predicates) replay into it before it
// subscribes, so the shared window's future expiry deletions always match
// insertions out has seen. Caller holds s.mu.
func (s *Sharing) attachLocked(scan *Scan, preds []expr.Expr, keys []string, out stream.Operator, restoring bool) (*sharedChain, error) {
	ch, err := s.ensureBase(keys[0], scan)
	if err != nil {
		s.gcLocked()
		return nil, err
	}
	for i, p := range preds {
		ch, err = s.ensureLayer(ch, keys[i+1], p, scan.Schema())
		if err != nil {
			s.gcLocked()
			return nil, err
		}
	}
	if !restoring {
		warmStart(ch, out)
	}
	ch.fan.Subscribe(out)
	ch.refs++
	return ch, nil
}

// sharedResult is one result group: the projection of a chain's output into
// one store that every member deployment reads through a view of its own.
// It holds one reference on its chain, through head's subscription.
type sharedResult struct {
	s       *Sharing
	key     string
	ch      *sharedChain
	head    stream.Operator // what feeds store: its column feed, a Project, or store itself
	store   *stream.Materialize
	members int
}

// tryAttachResult deploys b as a member of its result group, creating the
// group when it is the first, and reports handled=false when b's plan cannot
// share a result: it names a display, is not Project?(Select*(Scan)), has an
// unwindowed scan, or does not canonicalize. On handled=true dep.Result is a
// view of the group's store (or err says why it could not be): dep needs
// nothing else compiled and checkpoints nothing, since a new store, on deploy
// and on restore alike, is warm-started from its chain's window.
func (s *Sharing) tryAttachResult(b *Built, dep *Deployment) (handled bool, err error) {
	if b.Display != "" {
		return false, nil
	}
	n := b.Root
	proj, _ := n.(*Project)
	if proj != nil {
		n = proj.In
	}
	scan, preds, ok := shareablePrefix(n)
	if !ok || windowFor(scan.Window) == nil {
		return false, nil
	}
	keys, ok := prefixKeys(scan, preds)
	if !ok {
		return false, nil
	}
	items := []string{"*"}
	if proj != nil {
		items = make([]string, len(proj.Items))
		for i, it := range proj.Items {
			if items[i], ok = canonExpr(it.Expr, n.Schema()); !ok {
				return false, nil
			}
		}
	}
	key := keys[len(keys)-1] + "|r:" + strings.Join(items, ",")

	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.results[key]
	if r == nil {
		store := stream.NewMaterialize(b.Root.Schema())
		var head stream.Operator = store
		if proj != nil {
			if head, err = resultFeed(store, n.Schema(), proj.Items); err != nil {
				return true, err
			}
		}
		ch, err := s.attachLocked(scan, preds, keys, head, false)
		if err != nil {
			return true, err
		}
		r = &sharedResult{s: s, key: key, ch: ch, head: head, store: store}
		s.results[key] = r
	}
	r.members++
	dep.Result = r.store.View(b.Root.Schema())
	dep.Inputs = append(dep.Inputs, scan.Input)
	dep.group = r
	return true, nil
}

// leave undoes one membership: view freezes into a private copy, and the
// last member's leave releases the group's chain attachment.
func (r *sharedResult) leave(view *stream.Materialize) {
	view.Freeze()
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.members--; r.members > 0 {
		return
	}
	delete(s.results, r.key)
	s.releaseLocked(r.ch, r.head)
}

// ensureBase finds or builds the scan+window base chain. Caller holds
// s.mu.
func (s *Sharing) ensureBase(key string, scan *Scan) (*sharedChain, error) {
	if ch, ok := s.chains[key]; ok {
		return ch, nil
	}
	in, err := resolveScanInput(scan, s.eng)
	if err != nil {
		return nil, err
	}
	ch := &sharedChain{key: key, fan: stream.NewFanout(scan.Schema()), in: in}
	ch.head = ch.fan
	if w := windowFor(scan.Window); w != nil {
		ch.win = buildWindow(w, ch.fan)
		ch.head = ch.win
		s.eng.TrackWindow(ch.win)
	}
	in.Subscribe(ch.head)
	s.chains[key] = ch
	if st, ok := s.pending[key]; ok {
		delete(s.pending, key)
		if ch.win != nil {
			if err := stream.RestoreCheckpoint([]stream.Checkpointer{ch.win}, st); err != nil {
				// Chain stays registered with refs == 0; the caller's
				// gcLocked on the error path detaches it.
				return nil, fmt.Errorf("plan: restore shared chain %q: %w", key, err)
			}
		}
	}
	return ch, nil
}

// ensureLayer finds or builds the derived chain stacking pred on parent.
// Caller holds s.mu.
func (s *Sharing) ensureLayer(parent *sharedChain, key string, pred expr.Expr, schema *data.Schema) (*sharedChain, error) {
	if ch, ok := s.chains[key]; ok {
		return ch, nil
	}
	compiled, err := expr.Bind(pred, schema)
	if err != nil {
		return nil, err
	}
	ch := &sharedChain{key: key, parent: parent, fan: stream.NewFanout(schema), pred: compiled}
	if parent.sel == nil {
		parent.sel = stream.NewGroupedFilter(schema)
		parent.fan.Subscribe(parent.sel)
	}
	parent.sel.Add(ch.fan, compiled)
	parent.refs++
	s.chains[key] = ch
	return ch, nil
}

// warmStart replays what a fresh subscriber of ch must see into out: the
// base window's live rows, through the chain's predicate stack (in which
// order the filters run cannot change the surviving subset). An unwindowed
// chain has no replayable state, same as a private one. Caller holds s.mu
// and must not be pushing concurrently.
func warmStart(ch *sharedChain, out stream.Operator) {
	for ; ch.parent != nil; ch = ch.parent {
		out = stream.NewFilter(out, ch.pred)
	}
	if ch.win != nil && ch.win.Len() > 0 {
		out.PushBatch(ch.win.Contents())
	}
}

// release undoes one attachment: the suffix unsubscribes from its chain,
// and every chain whose refcount reaches zero detaches from its parent
// (ultimately from the engine input and tick list) and is forgotten —
// the last Stop of the last query sharing a prefix tears the physical
// chain down.
func (s *Sharing) release(ch *sharedChain, out stream.Operator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(ch, out)
}

// releaseLocked is release with s.mu held.
func (s *Sharing) releaseLocked(ch *sharedChain, out stream.Operator) {
	ch.fan.Unsubscribe(out)
	for ch != nil {
		ch.refs--
		if ch.refs > 0 {
			return
		}
		s.detachLocked(ch)
		ch = ch.parent
	}
}

// detachLocked forgets ch and unhooks it from what feeds it: its parent's
// grouped selection (which leaves the parent's fan-out point with its last
// member), or the engine input and tick list. Caller holds s.mu.
func (s *Sharing) detachLocked(ch *sharedChain) {
	delete(s.chains, ch.key)
	if p := ch.parent; p != nil {
		p.sel.Remove(ch.fan)
		if p.sel.Members() == 0 {
			p.fan.Unsubscribe(p.sel)
			p.sel = nil
		}
		return
	}
	ch.in.Unsubscribe(ch.head)
	if ch.win != nil {
		s.eng.UntrackWindow(ch.win)
	}
}

// gcLocked detaches and forgets chains nothing references — the cleanup
// for a tryAttach that failed after creating chain layers (every chain
// that survives a successful attach holds at least one reference).
// Caller holds s.mu.
func (s *Sharing) gcLocked() {
	for {
		removed := false
		for _, ch := range s.chains {
			if ch.refs != 0 {
				continue
			}
			s.detachLocked(ch)
			if ch.parent != nil {
				ch.parent.refs--
			}
			removed = true
		}
		if !removed {
			return
		}
	}
}

// sharedAttach records one query-side attachment for release at
// Deployment.Close.
type sharedAttach struct {
	s   *Sharing
	ch  *sharedChain
	out stream.Operator
}

func (a sharedAttach) release() { a.s.release(a.ch, a.out) }
