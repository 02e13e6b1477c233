package plan

import (
	"strings"

	"aspen/internal/expr"
	"aspen/internal/sql"
)

// This file decides whether a logical plan can execute partition-parallel
// (stream.Sharder / stream.ShardSet) and, if so, which key each scan must
// hash-partition its input on so that every stateful operator's state
// partitions cleanly: all tuples of one group, one join key, or one
// distinct value land in the same pipeline replica.
//
// Partition keys are scalar expressions over the scan schema, not just
// columns: a key column that passes through a deterministic computed
// projection still imposes a key on the source — the projection expression
// itself, evaluated by the exchange (stream.NewExprSharder). Equal key
// values downstream come from equal expression values at the scan, so the
// shard stays a function of the key.
//
// The analysis runs top-down. impose(n, keys, exact) establishes the
// invariant that subtree n's output tuples route to shard
// hash(partition key) % P where the partition key is:
//
//   - exact:  precisely the values of keys, in order — required below a
//     join, whose two sides must agree bit-for-bit on the shard of
//     matching tuples (data.Hasher.Route's canonical walk makes equal
//     values hash equal across schemas);
//   - !exact: any non-empty, order-preserved subsequence of keys — enough
//     for single-input state (groups, distinct), which only needs the
//     shard to be a function of the key.
//
// Aggregates the invariant cannot reach — global aggregates, and grouped
// aggregates whose key does not survive to the scans — still shard via
// two-phase (partial/final-merge) execution when they sit on the plan's
// serial spine: analyzeShard splits the aggregate into per-replica
// stream.PartialAggregate stages and one serial stream.FinalMerge, and the
// subtree below partitions on whatever key its own operators need (partial
// states merge correctly under any deterministic partitioning). Plans
// neither analysis covers — ROWS windows (a global last-n), cross joins —
// fall back to serial execution.

// shardStrategy describes how a plan executes partition-parallel.
type shardStrategy struct {
	// Keys gives each scan's partition key expressions over the scan
	// schema; nil means "all columns".
	Keys map[*Scan][]expr.Expr
	// Split, when non-nil, is the aggregate that executes two-phase: each
	// replica runs a PartialAggregate over Split.In, and the operators
	// above Split run serially behind the Merge funnel, fed by a
	// FinalMerge.
	Split *Aggregate
}

// analyzeShard decides whether (and how) the plan can execute
// partition-parallel.
func analyzeShard(root Node) (*shardStrategy, bool) {
	keys := map[*Scan][]expr.Expr{}
	if impose(root, nil, false, keys) {
		return &shardStrategy{Keys: keys}, true
	}
	// One-phase sharding failed. Walk the serial spine — unary operators
	// that can run once behind the merge funnel — to the topmost
	// aggregate and split it two-phase: the replicas impose no key of
	// their own (partial states merge under any partitioning), so the
	// subtree below partitions on whatever its joins and windows need.
	n := root
	for {
		switch x := n.(type) {
		case *Select:
			n = x.In
		case *Project:
			n = x.In
		case *Distinct:
			n = x.In
		case *Aggregate:
			keys = map[*Scan][]expr.Expr{}
			if !impose(x.In, nil, false, keys) {
				return nil, false
			}
			return &shardStrategy{Keys: keys, Split: x}, true
		default:
			return nil, false
		}
	}
}

// impose establishes the partition invariant for subtree n; keys == nil
// means no requirement has been set yet (the first stateful operator
// below picks its own). It records each scan's partition key in out.
func impose(n Node, keys []expr.Expr, exact bool, out map[*Scan][]expr.Expr) bool {
	switch x := n.(type) {
	case *Scan:
		// A ROWS window is a global last-n: its contents depend on total
		// arrival order, which no partitioning preserves.
		if x.Window != nil && x.Window.Kind == sql.WindowRows {
			return false
		}
		for _, k := range keys {
			if _, err := expr.Bind(k, x.Schema()); err != nil {
				return false
			}
		}
		out[x] = keys
		return true

	case *Select:
		return impose(x.In, keys, exact, out)

	case *Project:
		if keys == nil {
			return impose(x.In, nil, exact, out)
		}
		// Map each key through the projection by substituting column
		// references with their defining items; deterministic computed
		// items preserve the key's value (and therefore its hash) across
		// the operator.
		mapped := make([]expr.Expr, 0, len(keys))
		for _, k := range keys {
			m, ok := mapThroughProject(k, x)
			if !ok {
				if exact {
					return false
				}
				continue // unresolvable key part: drop from the loose key
			}
			mapped = append(mapped, m)
		}
		if len(mapped) == 0 {
			return false
		}
		return impose(x.In, mapped, exact, out)

	case *Distinct:
		if keys == nil {
			// Set semantics only need equal tuples co-located: partition on
			// (any subsequence of) the full row.
			keys = make([]expr.Expr, x.Schema().Arity())
			for i, c := range x.Schema().Cols {
				keys[i] = expr.Col{Ref: c.QName()}
			}
			exact = false
		}
		return impose(x.In, keys, exact, out)

	case *Aggregate:
		if keys == nil {
			if len(x.GroupBy) == 0 {
				// A global aggregate needs the two-phase split; analyzeShard
				// applies it when this aggregate sits on the serial spine.
				return false
			}
			gk := make([]expr.Expr, len(x.GroupBy))
			for i, g := range x.GroupBy {
				gk[i] = expr.Col{Ref: g}
			}
			return impose(x.In, gk, false, out)
		}
		// Keys map through the group columns: AggOutSchema lays out group
		// columns first, in GroupBy order; aggregate-value columns do not
		// survive downward.
		sub := make([]expr.Expr, 0, len(keys))
		for _, k := range keys {
			m, ok := mapThroughAggregate(k, x)
			if !ok {
				if exact {
					return false // key depends on an aggregate value
				}
				continue
			}
			sub = append(sub, m)
		}
		if len(sub) == 0 {
			return false
		}
		// sub references only group columns, keeping every group in one
		// shard; under an exact requirement nothing was dropped, so values
		// match keys in order.
		return impose(x.In, sub, exact, out)

	case *Join:
		if len(x.LKey) == 0 {
			return false // cross / residual-only join has no partition key
		}
		larity := x.L.Schema().Arity()
		pairOf := func(ref string) int {
			j, err := x.Schema().ColIndex(ref)
			if err != nil {
				return -1
			}
			for i := range x.LKey {
				if li, err := x.L.Schema().ColIndex(x.LKey[i]); err == nil && li == j {
					return i
				}
				if ri, err := x.R.Schema().ColIndex(x.RKey[i]); err == nil && larity+ri == j {
					return i
				}
			}
			return -1
		}
		var pairs []int
		if keys == nil {
			pairs = make([]int, len(x.LKey))
			for i := range pairs {
				pairs[i] = i
			}
		} else {
			for _, k := range keys {
				// Only a bare join-key column aligns the two sides; a
				// computed key cannot be imposed on both inputs at once.
				col, isCol := k.(expr.Col)
				i := -1
				if isCol {
					i = pairOf(col.Ref)
				}
				if i < 0 {
					if exact {
						return false
					}
					continue
				}
				pairs = append(pairs, i)
			}
			if len(pairs) == 0 {
				return false
			}
		}
		lsub := make([]expr.Expr, len(pairs))
		rsub := make([]expr.Expr, len(pairs))
		for i, p := range pairs {
			lsub[i] = expr.Col{Ref: x.LKey[p]}
			rsub[i] = expr.Col{Ref: x.RKey[p]}
		}
		// Both sides must shard on exactly the aligned key columns so that
		// join partners (equal key values) meet in one replica.
		return impose(x.L, lsub, true, out) && impose(x.R, rsub, true, out)
	}
	return false
}

// mapThroughProject rewrites a key expression over the projection's output
// schema into an equivalent expression over its input schema, substituting
// every column reference with its defining item. Fails on unresolvable
// references and on items that are not deterministic scalars.
func mapThroughProject(e expr.Expr, x *Project) (expr.Expr, bool) {
	return substituteCols(e, func(ref string) (expr.Expr, bool) {
		j, err := x.Schema().ColIndex(ref)
		if err != nil {
			return nil, false
		}
		item := x.Items[j].Expr
		if !deterministicExpr(item) {
			return nil, false
		}
		return item, true
	})
}

// mapThroughAggregate rewrites a key expression over the aggregate's
// output schema into one over its input, allowed only when every column
// reference is a group column (position < len(GroupBy) in the output
// layout). Aggregate values are computed, not carried, so they cannot
// impose anything below.
func mapThroughAggregate(e expr.Expr, x *Aggregate) (expr.Expr, bool) {
	return substituteCols(e, func(ref string) (expr.Expr, bool) {
		j, err := x.Schema().ColIndex(ref)
		if err != nil || j >= len(x.GroupBy) {
			return nil, false
		}
		return expr.Col{Ref: x.GroupBy[j]}, true
	})
}

// substituteCols rewrites every column reference in e through sub,
// preserving the rest of the tree.
func substituteCols(e expr.Expr, sub func(ref string) (expr.Expr, bool)) (expr.Expr, bool) {
	switch t := e.(type) {
	case expr.Lit:
		return t, true
	case expr.Col:
		return sub(t.Ref)
	case expr.Bin:
		l, ok := substituteCols(t.L, sub)
		if !ok {
			return nil, false
		}
		r, ok := substituteCols(t.R, sub)
		if !ok {
			return nil, false
		}
		return expr.Bin{Op: t.Op, L: l, R: r}, true
	case expr.Un:
		in, ok := substituteCols(t.X, sub)
		if !ok {
			return nil, false
		}
		return expr.Un{Op: t.Op, X: in}, true
	case expr.IsNull:
		in, ok := substituteCols(t.X, sub)
		if !ok {
			return nil, false
		}
		return expr.IsNull{X: in, Neg: t.Neg}, true
	case expr.Call:
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			m, ok := substituteCols(a, sub)
			if !ok {
				return nil, false
			}
			args[i] = m
		}
		return expr.Call{Name: t.Name, Args: args}, true
	}
	return nil, false
}

// deterministicExpr reports whether e is a pure function of its input
// tuple — the property that lets an exchange evaluate it for routing (an
// insert and its delete must hash identically). Every current builtin is
// deterministic; the explicit allowlist fails closed if one ever is not.
func deterministicExpr(e expr.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case expr.Lit, expr.Col:
		return true
	case expr.Bin:
		return deterministicExpr(x.L) && deterministicExpr(x.R)
	case expr.Un:
		return deterministicExpr(x.X)
	case expr.IsNull:
		return deterministicExpr(x.X)
	case expr.Call:
		switch strings.ToLower(x.Name) {
		case "abs", "lower", "upper", "length", "coalesce", "sqrt", "dist":
		default:
			return false
		}
		for _, a := range x.Args {
			if !deterministicExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}
