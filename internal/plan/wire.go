package plan

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/gobcheck"
	"aspen/internal/sql"
	"aspen/internal/stream"
)

// This file is the plan layer's side of multi-node shard execution: a
// replica's logical subplan travels to a stream.ShardWorker as a gob-encoded
// wire spec, and DeployReplica rebuilds and compiles it there. The worker
// process never sees SQL or the catalog — just the already-analyzed subtree
// the coordinator's shard analysis proved partitionable, plus the optional
// PartialAggregate cap of a two-phase plan. Specs are the cold path and
// the one place gob remains on the wire (inside deploy frame bodies);
// the per-batch hot path uses the columnar codec in stream/wire.go.

func init() {
	// expr.Expr values ride inside wire nodes (predicates, projections,
	// aggregate arguments); gob, and gobcheck's walk ahead of it, need the
	// concrete types registered.
	gobcheck.Register(expr.Lit{})
	gobcheck.Register(expr.Col{})
	gobcheck.Register(expr.Bin{})
	gobcheck.Register(expr.Un{})
	gobcheck.Register(expr.IsNull{})
	gobcheck.Register(expr.Call{})
}

// wireKind discriminates wire plan nodes.
type wireKind uint8

const (
	wireScan wireKind = iota
	wireSelect
	wireProject
	wireJoin
	wireAggregate
	wireDistinct
)

// wireNode mirrors one logical plan node in a gob-friendly shape. Children
// hold the inputs (one for unary nodes, [L, R] for joins).
type wireNode struct {
	Kind     wireKind
	Children []wireNode

	// wireScan
	Input   string
	Alias   string
	Window  *sql.WindowSpec
	Rate    float64
	IsTable bool
	Schema  *data.Schema

	// wireSelect (Pred), wireJoin (Residual), wireAggregate (Having)
	Pred expr.Expr

	// wireProject
	Items []stream.ProjectItem

	// wireJoin
	LKey, RKey []string

	// wireAggregate
	GroupBy []string
	Specs   []stream.AggSpec
}

// wirePartial is the two-phase cap: the replica runs a PartialAggregate
// with these parameters on top of the subtree, shipping partial rows to the
// coordinator's FinalMerge.
type wirePartial struct {
	GroupBy []string
	Specs   []stream.AggSpec
}

// wireReplica is one deployable replica spec. Fragments, when present,
// are the sensor epoch fragments each shard hosts next to its replica
// (see fragment.go) — the deploying worker must carry their sources in
// its SensorHosts registry.
type wireReplica struct {
	Root      wireNode
	Partial   *wirePartial
	Fragments []wireFragment
}

// encodeNode lowers a plan subtree to its wire mirror.
func encodeNode(n Node) (wireNode, error) {
	switch x := n.(type) {
	case *Scan:
		return wireNode{
			Kind: wireScan, Input: x.Input, Alias: x.Alias, Window: x.Window,
			Rate: x.Rate, IsTable: x.IsTable, Schema: x.schema,
		}, nil
	case *Select:
		in, err := encodeNode(x.In)
		if err != nil {
			return wireNode{}, err
		}
		return wireNode{Kind: wireSelect, Children: []wireNode{in}, Pred: x.Pred}, nil
	case *Project:
		in, err := encodeNode(x.In)
		if err != nil {
			return wireNode{}, err
		}
		return wireNode{Kind: wireProject, Children: []wireNode{in}, Items: x.Items}, nil
	case *Join:
		l, err := encodeNode(x.L)
		if err != nil {
			return wireNode{}, err
		}
		r, err := encodeNode(x.R)
		if err != nil {
			return wireNode{}, err
		}
		return wireNode{Kind: wireJoin, Children: []wireNode{l, r},
			LKey: x.LKey, RKey: x.RKey, Pred: x.Residual}, nil
	case *Aggregate:
		in, err := encodeNode(x.In)
		if err != nil {
			return wireNode{}, err
		}
		return wireNode{Kind: wireAggregate, Children: []wireNode{in},
			GroupBy: x.GroupBy, Specs: x.Specs, Pred: x.Having}, nil
	case *Distinct:
		in, err := encodeNode(x.In)
		if err != nil {
			return wireNode{}, err
		}
		return wireNode{Kind: wireDistinct, Children: []wireNode{in}}, nil
	}
	return wireNode{}, fmt.Errorf("plan: cannot ship %T to a shard worker", n)
}

// decodeNode rebuilds the plan subtree from its wire mirror. Derived
// schemas recompute from the children, so a worker running a different
// build would fail loudly rather than mis-shape tuples.
func decodeNode(w wireNode) (Node, error) {
	child := func(i int) (Node, error) {
		if i >= len(w.Children) {
			return nil, fmt.Errorf("plan: wire node missing child %d", i)
		}
		return decodeNode(w.Children[i])
	}
	switch w.Kind {
	case wireScan:
		if w.Schema == nil {
			return nil, fmt.Errorf("plan: wire scan %s has no schema", w.Input)
		}
		return &Scan{Input: w.Input, Alias: w.Alias, Window: w.Window,
			Rate: w.Rate, IsTable: w.IsTable, schema: w.Schema}, nil
	case wireSelect:
		in, err := child(0)
		if err != nil {
			return nil, err
		}
		return &Select{In: in, Pred: w.Pred}, nil
	case wireProject:
		in, err := child(0)
		if err != nil {
			return nil, err
		}
		return NewProject(in, w.Items)
	case wireJoin:
		l, err := child(0)
		if err != nil {
			return nil, err
		}
		r, err := child(1)
		if err != nil {
			return nil, err
		}
		return NewJoin(l, r, w.LKey, w.RKey, w.Pred), nil
	case wireAggregate:
		in, err := child(0)
		if err != nil {
			return nil, err
		}
		return NewAggregate(in, w.GroupBy, w.Specs, w.Pred)
	case wireDistinct:
		in, err := child(0)
		if err != nil {
			return nil, err
		}
		return &Distinct{In: in}, nil
	}
	return nil, fmt.Errorf("plan: unknown wire node kind %d", w.Kind)
}

// encodeReplica serializes the replica subtree (with its optional two-phase
// cap and shard-hosted sensor fragments) for shipment to a shard worker.
func encodeReplica(root Node, split *Aggregate, frags []wireFragment) ([]byte, error) {
	w, err := encodeNode(root)
	if err != nil {
		return nil, err
	}
	rep := wireReplica{Root: w, Fragments: frags}
	if split != nil {
		rep.Partial = &wirePartial{GroupBy: split.GroupBy, Specs: split.Specs}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		return nil, fmt.Errorf("plan: encode replica spec: %w", err)
	}
	return buf.Bytes(), nil
}

// scanName is the wire name of the i-th scan (plan walk order); the
// coordinator's exchanges and the worker's registered heads agree on it
// because both sides walk the identical decoded tree.
func scanName(i int) string { return fmt.Sprintf("s%d", i) }

// DeployReplica is the stream.DeployFunc behind every home a shard can
// have — a shard worker's executors, and the coordinator's own shard set
// for in-process replicas (first deployment, Rescale and failover's last
// resort alike): it decodes a wire replica spec, compiles the subtree's operators (capped by a
// PartialAggregate for two-phase plans) into a stream.ResultSink shipping
// back through send, instantiates any shard-hosted sensor fragments against the
// receiver's SensorHosts registry, optionally restores a failover
// checkpoint into them, and returns the scan heads, the replica's one
// advancer (its windows, then its fragment runners), and stateful operators
// for the replica's executor to feed, tick, and checkpoint. Every push into
// a head and every tick is one replica call, sent through send once.
//
// The checkpointer order is deterministic — the two-phase cap first, then
// the stateful operators in compile (depth-first) order over the decoded
// tree, then the fragment runners in wire order — so a checkpoint taken
// from one deployment of the spec restores into any other, in any process.
//
// The receiver may be nil: an empty registry, rejecting any spec that
// carries sensor fragments (fragment-free specs deploy as before).
func (h *SensorHosts) DeployReplica(spec []byte, shard int, state []byte, send stream.ResultSender) (map[string]stream.Operator, []stream.Advancer, []stream.Checkpointer, error) {
	var rep wireReplica
	if err := gobcheck.Decode(spec, &rep); err != nil {
		return nil, nil, nil, fmt.Errorf("plan: decode replica spec: %w", err)
	}
	root, err := decodeNode(rep.Root)
	if err != nil {
		return nil, nil, nil, err
	}
	sinkSchema := root.Schema()
	if rep.Partial != nil {
		// Two-phase: the replica ships partial-state rows, not plan rows.
		sinkSchema, err = stream.AggPartialSchema(root.Schema(), rep.Partial.GroupBy, rep.Partial.Specs)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	var cks []stream.Checkpointer
	sink := stream.NewResultSink(sinkSchema, send)
	var out stream.Operator = sink
	var cols []int // the columns of root the cap reads (nil: all)
	if rep.Partial != nil {
		if cols, err = aggWrites(root, rep.Partial.GroupBy, rep.Partial.Specs); err != nil {
			return nil, nil, nil, err
		}
		pa, err := stream.NewPartialAggregate(out, narrow(root.Schema(), cols), rep.Partial.GroupBy, rep.Partial.Specs)
		if err != nil {
			return nil, nil, nil, err
		}
		out = pa
		cks = append(cks, pa)
	}
	idx := map[*Scan]int{}
	for i, sc := range Scans(root) {
		idx[sc] = i
	}
	heads := map[string]stream.Operator{}
	var advs []stream.Advancer
	c := &compiler{
		track: func(a stream.Advancer) { advs = append(advs, a) },
		scanHead: func(x *Scan, head stream.Operator) error {
			heads[scanName(idx[x])] = head
			return nil
		},
		ck: func(k stream.Checkpointer) { cks = append(cks, k) },
	}
	if err := c.compile(root, out, cols); err != nil {
		return nil, nil, nil, err
	}
	runners, err := h.buildFragRunners(rep.Fragments, shard, heads)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, r := range runners {
		advs = append(advs, r)
		cks = append(cks, r)
	}
	if err := stream.RestoreCheckpoint(cks, state); err != nil {
		return nil, nil, nil, err
	}
	for name, h := range heads {
		heads[name] = sink.Entry(h)
	}
	if len(advs) > 0 {
		advs = []stream.Advancer{sink.Tick(advs)}
	}
	return heads, advs, cks, nil
}

// NewWorker starts a shard worker hosting remote plan replicas on addr —
// the process-level entry point cmd/shardworker and the multi-node tests
// build on. Workers built this way host no sensor sources; see
// NewSensorWorker.
func NewWorker(addr string) (*stream.ShardWorker, error) {
	return NewSensorWorker(addr, nil)
}

// NewSensorWorker starts a shard worker that additionally hosts the sensor
// sources registered in hosts: deploy specs carrying sensor fragments over
// those sources run their partitioned epochs inside this worker, feeding
// the co-resident shard replicas directly (the paper's in-network
// execution, at the worker holding the motes).
func NewSensorWorker(addr string, hosts *SensorHosts) (*stream.ShardWorker, error) {
	return stream.NewShardWorker(addr, hosts.DeployReplica)
}
