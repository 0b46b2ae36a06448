// Package profile implements AutoMap's dynamic analysis and profiles
// database (Figure 4 of the paper).
//
// AutoMap "performs a dynamic analysis, which ensures that the search knows
// the actual costs of executing tasks and copying data, rather than relying
// on static estimates" (Section 1), and its input "is a file containing the
// search space and machine model representation ... generated automatically
// by running and profiling the application once" (Section 3.3).
//
// This package provides both halves:
//
//   - Extract runs the application once under its starting mapping and
//     produces a Space: the tasks, collection arguments, measured per-task
//     runtimes, and dependence information the search needs; the Space can
//     be saved to / loaded from a JSON file.
//   - DB accumulates timing samples per candidate mapping (keyed by the
//     mapping's canonical hash) so repeated suggestions are recognized
//     without re-execution, and summarizes them with mean and variance.
package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"automap/internal/fsatomic"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/stats"
	"automap/internal/taskir"
)

// TaskInfo is the profiled description of one group task.
type TaskInfo struct {
	ID     taskir.TaskID `json:"id"`
	Name   string        `json:"name"`
	Points int           `json:"points"`
	// RuntimeSec is the measured execution time of the task under the
	// profiling run; CD/CCD order tasks by it, longest first.
	RuntimeSec float64 `json:"runtime_sec"`
	// Variants lists the processor kinds the task can run on.
	Variants []machine.ProcKind `json:"variants"`
	// NumArgs is the number of collection arguments.
	NumArgs int `json:"num_args"`
}

// ArgInfo describes one collection argument of one task.
type ArgInfo struct {
	Task       taskir.TaskID       `json:"task"`
	Arg        int                 `json:"arg"`
	Collection taskir.CollectionID `json:"collection"`
	SizeBytes  int64               `json:"size_bytes"`
	Privilege  string              `json:"privilege"`
}

// DepInfo mirrors one dependence edge.
type DepInfo struct {
	From       taskir.TaskID       `json:"from"`
	To         taskir.TaskID       `json:"to"`
	Collection taskir.CollectionID `json:"collection"`
}

// OverlapInfo records one overlapping collection pair and its weight.
type OverlapInfo struct {
	A           taskir.CollectionID `json:"a"`
	B           taskir.CollectionID `json:"b"`
	WeightBytes int64               `json:"weight_bytes"`
}

// Space is the search-space file contents: everything the driver needs to
// run a search, produced by a single profiling run of the application.
type Space struct {
	Application string        `json:"application"`
	Machine     string        `json:"machine"`
	Tasks       []TaskInfo    `json:"tasks"`
	Args        []ArgInfo     `json:"args"`
	Deps        []DepInfo     `json:"deps"`
	Overlaps    []OverlapInfo `json:"overlaps"`
	// BaselineSec is the execution time of the profiling (starting)
	// mapping.
	BaselineSec float64 `json:"baseline_sec"`
}

// Extract profiles program g on machine m under mapping start (typically
// mapping.Default) and returns the search space representation. The noise
// configuration applies to the single profiling run.
func Extract(m *machine.Machine, g *taskir.Graph, start *mapping.Mapping, cfg sim.Config) (*Space, error) {
	res, err := sim.Simulate(m, g, start, cfg)
	if err != nil {
		return nil, fmt.Errorf("profiling run failed: %w", err)
	}
	sp := &Space{
		Application: g.Name,
		Machine:     m.Name,
		BaselineSec: res.MakespanSec,
	}
	for _, t := range g.Tasks {
		sp.Tasks = append(sp.Tasks, TaskInfo{
			ID:         t.ID,
			Name:       t.Name,
			Points:     t.Points,
			RuntimeSec: res.TaskWallSec[t.ID],
			Variants:   t.VariantKinds(),
			NumArgs:    len(t.Args),
		})
		for a, arg := range t.Args {
			c := g.Collection(arg.Collection)
			sp.Args = append(sp.Args, ArgInfo{
				Task:       t.ID,
				Arg:        a,
				Collection: arg.Collection,
				SizeBytes:  c.SizeBytes(),
				Privilege:  arg.Privilege.String(),
			})
		}
	}
	for _, d := range g.Deps() {
		sp.Deps = append(sp.Deps, DepInfo{From: d.From, To: d.To, Collection: d.Collection})
	}
	for i := 0; i < len(g.Collections); i++ {
		for j := i + 1; j < len(g.Collections); j++ {
			w := g.Collections[i].OverlapBytes(g.Collections[j])
			if w > 0 {
				sp.Overlaps = append(sp.Overlaps, OverlapInfo{
					A: g.Collections[i].ID, B: g.Collections[j].ID, WeightBytes: w,
				})
			}
		}
	}
	return sp, nil
}

// TasksByRuntime returns the task IDs ordered from longest to shortest
// profiled runtime (ties broken by ID for determinism) — the iteration
// order of Algorithm 1, line 6.
func (sp *Space) TasksByRuntime() []taskir.TaskID {
	infos := append([]TaskInfo(nil), sp.Tasks...)
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].RuntimeSec != infos[j].RuntimeSec {
			return infos[i].RuntimeSec > infos[j].RuntimeSec
		}
		return infos[i].ID < infos[j].ID
	})
	out := make([]taskir.TaskID, len(infos))
	for i, t := range infos {
		out[i] = t.ID
	}
	return out
}

// ArgsBySize returns the argument indices of task t ordered from largest to
// smallest collection (Algorithm 1, line 14).
func (sp *Space) ArgsBySize(t taskir.TaskID) []int {
	var args []ArgInfo
	for _, a := range sp.Args {
		if a.Task == t {
			args = append(args, a)
		}
	}
	sort.Slice(args, func(i, j int) bool {
		if args[i].SizeBytes != args[j].SizeBytes {
			return args[i].SizeBytes > args[j].SizeBytes
		}
		return args[i].Arg < args[j].Arg
	})
	out := make([]int, len(args))
	for i, a := range args {
		out[i] = a.Arg
	}
	return out
}

// Save writes the space file as indented JSON. The write is atomic
// (fsatomic.WriteFile): a crash mid-save leaves any previous file intact.
func (sp *Space) Save(path string) error {
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, data)
}

// Load reads a space file previously written by Save.
func Load(path string) (*Space, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp Space
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing space file %s: %w", path, err)
	}
	return &sp, nil
}

// Sample is one set of repeated measurements of one mapping.
type Sample struct {
	MappingKey string
	Times      []float64
	Failed     bool // the mapping could not execute (e.g. out of memory)
}

// DB is the profiles database of Figure 4: it remembers every evaluated
// mapping and its measurements.
//
// DB is safe for concurrent use. The lock covers the index structure; the
// *Sample pointers returned by Lookup/Record alias live entries, so callers
// that interleave reads of a sample with concurrent Record calls on the
// same key must synchronize externally (the driver commits all writes from
// one goroutine).
type DB struct {
	mu      sync.RWMutex
	samples map[string]*Sample
	order   []string // insertion order for deterministic iteration
}

// NewDB returns an empty profiles database.
func NewDB() *DB {
	return &DB{samples: make(map[string]*Sample)}
}

// Lookup returns the sample recorded for the mapping key, if any.
func (db *DB) Lookup(key string) (*Sample, bool) {
	db.mu.RLock()
	s, ok := db.samples[key]
	db.mu.RUnlock()
	return s, ok
}

// Record stores measurements for a mapping key, appending to any existing
// sample.
func (db *DB) Record(key string, times []float64) *Sample {
	db.mu.Lock()
	s, ok := db.samples[key]
	if !ok {
		s = &Sample{MappingKey: key}
		db.samples[key] = s
		db.order = append(db.order, key)
	}
	s.Times = append(s.Times, times...)
	db.mu.Unlock()
	return s
}

// RecordFailure marks a mapping as unexecutable.
func (db *DB) RecordFailure(key string) *Sample {
	db.mu.Lock()
	s, ok := db.samples[key]
	if !ok {
		s = &Sample{MappingKey: key}
		db.samples[key] = s
		db.order = append(db.order, key)
	}
	s.Failed = true
	db.mu.Unlock()
	return s
}

// Len returns the number of distinct mappings recorded.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.samples)
}

// dbJSON is the serialized profiles database.
type dbJSON struct {
	Samples []sampleJSON `json:"samples"`
}

type sampleJSON struct {
	Key    string    `json:"key"`
	Times  []float64 `json:"times,omitempty"`
	Failed bool      `json:"failed,omitempty"`
}

// Save writes the database as JSON so a later search of the same program
// and machine can warm-start from previously measured mappings. The write
// is atomic: a crash mid-save leaves any previous file intact.
func (db *DB) Save(path string) error {
	var f dbJSON
	db.mu.RLock()
	for _, key := range db.order {
		s := db.samples[key]
		f.Samples = append(f.Samples, sampleJSON{Key: key, Times: s.Times, Failed: s.Failed})
	}
	db.mu.RUnlock()
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, data)
}

// LoadDB reads a profiles database written by Save.
func LoadDB(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f dbJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing profiles database %s: %w", path, err)
	}
	db := NewDB()
	for _, s := range f.Samples {
		if s.Failed {
			db.RecordFailure(s.Key)
		} else {
			db.Record(s.Key, s.Times)
		}
	}
	return db, nil
}

// Keys returns the mapping keys in insertion order.
func (db *DB) Keys() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}

// Mean returns the mean execution time of the sample; failed samples
// report +Inf.
func (s *Sample) Mean() float64 {
	if s.Failed || len(s.Times) == 0 {
		return math.Inf(1)
	}
	return stats.Mean(s.Times)
}

// Summary summarizes the sample's measurements.
func (s *Sample) Summary() stats.Summary { return stats.Summarize(s.Times) }
