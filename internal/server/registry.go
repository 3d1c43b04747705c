// Package server wraps the SLAP flow behind a long-running HTTP service:
// a model/library registry that deserialises artifacts once and shares
// them read-only across requests, a request scheduler that clamps
// per-request worker counts to a global budget, and JSON endpoints for
// mapping, cut classification, health and metrics.
//
// Concurrency model (DESIGN.md §8): each request decodes its own aig.AIG
// and runs its own cut enumerator and mapper state, so requests share
// nothing mutable except the registry entries — nn.Model is read-only at
// inference time and library.Library locks its match memo internally.
package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"slap/internal/core"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/nn"
)

// DefaultLibrary is the registry name of the built-in ASAP7-flavoured
// library, preloaded by NewRegistry and used when a request names none.
const DefaultLibrary = "asap7ish"

// ModelInfo describes one registry model for listings.
type ModelInfo struct {
	Name     string    `json:"name"`
	Params   int       `json:"params"`
	Classes  int       `json:"classes"`
	Source   string    `json:"source"`
	LoadedAt time.Time `json:"loaded_at"`
}

// LibraryInfo describes one registry library for listings.
type LibraryInfo struct {
	Name     string    `json:"name"`
	Gates    int       `json:"gates"`
	Source   string    `json:"source"`
	LoadedAt time.Time `json:"loaded_at"`
}

// Registry holds the named models and libraries of a mapping service.
// Artifacts are deserialised once (at startup or on hot-add) and then
// shared read-only by every request; entries are never mutated in place.
type Registry struct {
	mu     sync.RWMutex
	models map[string]modelEntry
	libs   map[string]libEntry

	// Hot-load failure bookkeeping: a rejected artifact never corrupts the
	// registry (the old entries keep serving), but the operator should see
	// it — /healthz reports degraded while failures stand.
	loadFailures int64
	lastLoadErr  string
}

// modelEntry is one registry model and the inference engine every request
// on it shares: the engine reads the weights only and is safe for
// concurrent ForwardBatch calls, and its pooled scratch is bounded per
// pass, so one per model serves the whole server.
type modelEntry struct {
	model  *nn.Model
	engine core.Batcher
	info   ModelInfo
}

// slap returns a SLAP over the entry's model and lib that classifies
// through the entry's shared engine.
func (e modelEntry) slap(lib *library.Library) *core.SLAP {
	sl := core.New(e.model, lib)
	sl.Batch = e.engine
	return sl
}

type libEntry struct {
	lib  *library.Library
	info LibraryInfo
}

// NewRegistry returns a registry preloaded with the built-in asap7ish
// library.
func NewRegistry() *Registry {
	r := &Registry{
		models: make(map[string]modelEntry),
		libs:   make(map[string]libEntry),
	}
	lib := library.ASAP7ish()
	r.libs[DefaultLibrary] = libEntry{lib: lib, info: LibraryInfo{
		Name: DefaultLibrary, Gates: len(lib.Gates), Source: "builtin",
	}}
	return r
}

// nameFromPath derives a registry name from an artifact path: the base name
// without its extension.
func nameFromPath(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// AddModel registers a loaded model under name. Duplicate names are
// rejected: entries are immutable so cached *nn.Model pointers held by
// in-flight requests stay valid.
func (r *Registry) AddModel(name string, m *nn.Model, source string) error {
	if name == "" {
		return fmt.Errorf("server: model name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; ok {
		return fmt.Errorf("server: model %q already registered", name)
	}
	r.models[name] = modelEntry{model: m, engine: infer.NewEngine(m, infer.Options{}), info: ModelInfo{
		Name: name, Params: m.NumParams(), Classes: m.Classes,
		Source: source, LoadedAt: time.Now(),
	}}
	return nil
}

// AddModelFile loads a gob model from path and registers it; an empty name
// uses the file's base name without extension.
func (r *Registry) AddModelFile(name, path string) error {
	if name == "" {
		name = nameFromPath(path)
	}
	m, err := nn.LoadFile(path)
	if err != nil {
		return err
	}
	return r.AddModel(name, m, path)
}

// AddLibrary registers a loaded library under name.
func (r *Registry) AddLibrary(name string, l *library.Library, source string) error {
	if name == "" {
		return fmt.Errorf("server: library name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.libs[name]; ok {
		return fmt.Errorf("server: library %q already registered", name)
	}
	r.libs[name] = libEntry{lib: l, info: LibraryInfo{
		Name: name, Gates: len(l.Gates), Source: source, LoadedAt: time.Now(),
	}}
	return nil
}

// AddLibraryFile parses a genlib-like library file and registers it; an
// empty name uses the file's base name without extension.
func (r *Registry) AddLibraryFile(name, path string) error {
	if name == "" {
		name = nameFromPath(path)
	}
	l, err := library.LoadFile(path)
	if err != nil {
		return err
	}
	return r.AddLibrary(name, l, path)
}

// RecordLoadFailure notes a failed artifact hot-load for health reporting.
func (r *Registry) RecordLoadFailure(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.loadFailures++
	r.lastLoadErr = err.Error()
}

// LoadFailures returns the count of failed artifact hot-loads and the most
// recent failure message.
func (r *Registry) LoadFailures() (int64, string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.loadFailures, r.lastLoadErr
}

// Model returns the named model, or an error listing the available names.
func (r *Registry) Model(name string) (*nn.Model, error) {
	e, err := r.modelEntry(name)
	return e.model, err
}

// modelEntry returns the named model's entry, or an error listing the
// available names.
func (r *Registry) modelEntry(name string) (modelEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.models[name]; ok {
		return e, nil
	}
	return modelEntry{}, fmt.Errorf("server: unknown model %q (available: %s)", name, joinKeys(r.models))
}

// Library returns the named library; an empty name selects DefaultLibrary.
func (r *Registry) Library(name string) (*library.Library, error) {
	if name == "" {
		name = DefaultLibrary
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.libs[name]; ok {
		return e.lib, nil
	}
	return nil, fmt.Errorf("server: unknown library %q (available: %s)", name, joinKeys(r.libs))
}

// Models lists registered models sorted by name.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Libraries lists registered libraries sorted by name.
func (r *Registry) Libraries() []LibraryInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]LibraryInfo, 0, len(r.libs))
	for _, e := range r.libs {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func joinKeys[V any](m map[string]V) string {
	if len(m) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
