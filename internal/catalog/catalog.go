// Package catalog implements ASPEN's Source & Device Catalog (Fig. 1): the
// registry of every data source (sensor streams, PC streams, database
// tables, Web sources) and the statistics the federated optimizer needs to
// convert between engine cost models (network diameter, sampling rates,
// stream rates, cardinalities).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aspen/internal/data"
	"aspen/internal/sql"
)

// SourceKind classifies where a source lives and which engine can scan it.
type SourceKind uint8

// Source kinds.
const (
	// KindSensorStream is produced by motes; scannable by the sensor engine
	// (and, via the base station, by the stream engine).
	KindSensorStream SourceKind = iota
	// KindStream is a PC-side stream (soft sensors, PDU wrappers, Web
	// feeds); scannable by the stream engine only.
	KindStream
	// KindTable is a stored database relation.
	KindTable
	// KindWeb is a periodically scraped Web source materialized as a
	// stream; scannable by the stream engine only.
	KindWeb
)

// String names the kind.
func (k SourceKind) String() string {
	switch k {
	case KindSensorStream:
		return "sensor-stream"
	case KindStream:
		return "stream"
	case KindTable:
		return "table"
	case KindWeb:
		return "web"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Source describes one registered data source.
type Source struct {
	Name   string
	Kind   SourceKind
	Schema *data.Schema

	// Rate is the steady-state tuple rate (tuples/second) for streams.
	Rate float64
	// SamplePeriod is the default device sampling period for sensor streams.
	SamplePeriod time.Duration
	// Table is the backing relation for KindTable sources.
	Table *data.Relation
	// Selectivity maps lowercased column names to an estimated fraction of
	// tuples passing an equality predicate on that column; optional.
	Selectivity map[string]float64
	// Derived marks streams produced by pushed sensor fragments: their
	// schemas already carry per-binding column qualifiers that the planner
	// must preserve rather than re-alias.
	Derived bool
}

// Cardinality estimates the number of tuples visible to one query
// evaluation: table size for tables, rate for streams (per second).
func (s *Source) Cardinality() float64 {
	if s.Kind == KindTable && s.Table != nil {
		return float64(s.Table.Len())
	}
	return s.Rate
}

// Stats holds the global federation statistics used to unify cost models.
type Stats struct {
	// NetworkDiameter is the sensor network diameter in hops.
	NetworkDiameter int
	// EpochPeriod is the sensor network's global sampling epoch.
	EpochPeriod time.Duration
	// RadioMsgLatency is the per-hop transmission latency of one radio
	// message; used to convert message counts into seconds.
	RadioMsgLatency time.Duration
	// RadioMsgEnergy is the per-message transmit energy in millijoules.
	RadioMsgEnergy float64
}

// DefaultStats returns sane defaults for a small building deployment.
func DefaultStats() Stats {
	return Stats{
		NetworkDiameter: 6,
		EpochPeriod:     time.Second,
		RadioMsgLatency: 20 * time.Millisecond,
		RadioMsgEnergy:  0.05,
	}
}

// Catalog is the source & device catalog. All methods are safe for
// concurrent use. Its generation counts the changes a plan can depend on:
// AddSource, AddView and SetStats each bump it, so a plan made at one
// generation is still the plan the catalog would give while Generation reads
// the same.
type Catalog struct {
	mu      sync.RWMutex
	sources map[string]*Source
	views   map[string]*sql.CreateView
	stats   Stats
	gen     uint64
}

// New returns an empty catalog with default statistics.
func New() *Catalog {
	return &Catalog{
		sources: map[string]*Source{},
		views:   map[string]*sql.CreateView{},
		stats:   DefaultStats(),
	}
}

// AddSource registers a source; the name must be unused by sources and views.
func (c *Catalog) AddSource(s *Source) error {
	if s.Name == "" || s.Schema == nil {
		return fmt.Errorf("catalog: source needs a name and schema")
	}
	key := strings.ToLower(s.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sources[key]; dup {
		return fmt.Errorf("catalog: duplicate source %q", s.Name)
	}
	if _, dup := c.views[key]; dup {
		return fmt.Errorf("catalog: %q already names a view", s.Name)
	}
	c.sources[key] = s
	c.gen++
	return nil
}

// MustAddSource registers a statically known source; panics on error.
func (c *Catalog) MustAddSource(s *Source) {
	if err := c.AddSource(s); err != nil {
		panic(err)
	}
}

// Source resolves a source by name (case-insensitive).
func (c *Catalog) Source(name string) (*Source, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sources[strings.ToLower(name)]
	return s, ok
}

// Sources returns all sources sorted by name.
func (c *Catalog) Sources() []*Source {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Source, 0, len(c.sources))
	for _, s := range c.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddView registers a named view definition.
func (c *Catalog) AddView(v *sql.CreateView) error {
	key := strings.ToLower(v.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.views[key]; dup {
		return fmt.Errorf("catalog: duplicate view %q", v.Name)
	}
	if _, dup := c.sources[key]; dup {
		return fmt.Errorf("catalog: %q already names a source", v.Name)
	}
	c.views[key] = v
	c.gen++
	return nil
}

// View resolves a view by name.
func (c *Catalog) View(name string) (*sql.CreateView, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// Stats returns the federation statistics.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats
}

// SetStats replaces the federation statistics.
func (c *Catalog) SetStats(s Stats) {
	c.mu.Lock()
	c.stats = s
	c.gen++
	c.mu.Unlock()
}

// Generation reports how many times the catalog has changed: it moves on
// every AddSource, AddView and SetStats that takes effect.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}
