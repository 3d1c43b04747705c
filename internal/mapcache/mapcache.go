// Package mapcache provides a bounded, content-addressed cache of mapping
// results for the serving flow: a structural fingerprint of (graph,
// options) maps to the mapped netlist, its QoR and verification bit, with
// LRU eviction under a byte-size budget. Exact repeats are answered in
// O(1); near-misses expose the nearest cached relative (by cone-hash
// overlap) so the ECO delta-remapper can reuse its snapshot; and a
// singleflight group collapses N concurrent identical submissions into one
// mapping whose result everyone shares.
//
// Invalidation is purely content-driven: the key covers the full graph
// encoding (including PI/PO names, which surface in rendered netlists) and
// an options signature including library and model identity, so any change
// to either simply misses; stale entries age out by LRU.
package mapcache

import (
	"sync"

	"slap/internal/aig"
	"slap/internal/mapper"
)

// Key is a 128-bit content address of a (graph, options) pair.
type Key struct {
	Hi, Lo uint64
}

// KeyOf fingerprints a graph plus an options-signature string. The graph
// part covers node types, fanin literals, PO literals and PI/PO names —
// byte-identical rendered output requires name identity, not just
// structural identity. Two independent FNV-1a passes with distinct offsets
// give 128 bits, making birthday collisions implausible at cache scale.
func KeyOf(g *aig.AIG, sig string) Key {
	const (
		offset1 = 0xcbf29ce484222325
		offset2 = 0x84222325cbf29ce4
		prime   = 0x100000001b3
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	mix := func(v uint64) {
		h1 = (h1 ^ v) * prime
		h2 = (h2 ^ (v ^ 0x9e3779b97f4a7c15)) * prime
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(uint64(s[i]))
		}
	}
	mixStr(g.Name)
	mix(uint64(g.NumNodes()))
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		switch {
		case g.IsAnd(n):
			f0, f1 := g.Fanins(n)
			mix(3)
			mix(uint64(f0))
			mix(uint64(f1))
		case g.IsPI(n):
			mix(5)
		default:
			mix(7)
		}
	}
	for i := 0; i < g.NumPIs(); i++ {
		mixStr(g.PIName(i))
	}
	for _, po := range g.POs() {
		mix(uint64(po.Lit))
		mixStr(po.Name)
	}
	mixStr(sig)
	return Key{Hi: h1, Lo: h2}
}

// Snapshot is the ECO baseline a cache entry may carry. mapper.Snapshot and
// core's slap snapshot both implement it.
type Snapshot interface {
	// NodeHashes returns the baseline graph's ordered cone hashes.
	NodeHashes() []uint64
	// SnapshotBytes estimates the snapshot's memory footprint.
	SnapshotBytes() int64
}

// Entry is one cached mapping result.
type Entry struct {
	// Key is the content address the entry was stored under.
	Key Key
	// Sig is the options signature the result was produced under; Nearest
	// only offers entries whose signature matches the request.
	Sig string
	// Result is the complete mapping result (netlist, QoR, counters). It is
	// shared by reference: treat it as immutable.
	Result *mapper.Result
	// Verified records whether the netlist passed equivalence checking.
	Verified bool
	// Snap, when non-nil, is the ECO baseline snapshot for delta-remapping
	// structurally similar designs.
	Snap Snapshot
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts exact-key lookups served from the cache (including
	// singleflight followers who shared a leader's fresh result).
	Hits int64
	// Misses counts lookups that found nothing under the exact key.
	Misses int64
	// ECOHits counts misses that were served by delta-remapping against a
	// nearest cached relative instead of a cold full map.
	ECOHits int64
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions int64
	// Bytes is the current estimated resident size.
	Bytes int64
	// Entries is the current entry count.
	Entries int
	// Snapshots is the number of resident entries carrying an ECO baseline
	// snapshot — the cache's delta-remap warmth, exported so fleet
	// coordinators can judge how much affinity-routed traffic a worker can
	// answer without a cold map.
	Snapshots int
}

// DefaultBudget is the cache byte budget when none is configured.
const DefaultBudget = 256 << 20

// nearestScan bounds how many recent snapshot-bearing entries a Nearest
// call examines; the scan is O(nodes) per candidate.
const nearestScan = 8

// minOverlap is the cone-hash overlap fraction below which a candidate is
// not worth delta-remapping (almost everything would be dirty anyway).
const minOverlap = 0.5

// Cache is a byte-budgeted LRU of mapping results with an integrated
// singleflight group. Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	lru *LRU[*Entry]

	hits, misses, ecoHits int64
	snapshots             int

	flight *Flight[*Entry]
}

// New builds a cache with the given byte budget (<= 0 means DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	c := &Cache{flight: NewFlight[*Entry]()}
	c.lru = NewLRU(budget, func(e *Entry) {
		if e.Snap != nil {
			c.snapshots--
		}
	})
	return c
}

// Get returns the entry stored under k, promoting it to most recently
// used. The hit/miss counters track every call.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(k)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// entryBytes estimates an entry's resident size: cells and their pin
// slices, POs, result bookkeeping and the optional snapshot.
func entryBytes(e *Entry) int64 {
	b := int64(256) // entry + result struct overhead
	if nl := e.Result.Netlist; nl != nil {
		b += int64(nl.NumCells()) * 96
		b += int64(nl.NumPIs()+nl.NumPOs()) * 48
	}
	b += int64(len(e.Result.Cover)) * 64
	b += int64(len(e.Sig))
	if e.Snap != nil {
		b += e.Snap.SnapshotBytes()
	}
	return b
}

// Add stores an entry under its Key, replacing any previous occupant, and
// evicts least-recently-used entries until the byte budget holds. An entry
// larger than the whole budget is not cached.
func (c *Cache) Add(e *Entry) {
	bytes := entryBytes(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Add(e.Key, e, bytes) && e.Snap != nil {
		c.snapshots++
	}
}

// Nearest scans the most recently used snapshot-bearing entries with a
// matching options signature and returns the one whose baseline shares the
// largest cone-hash overlap with hashes, provided it clears minOverlap.
// The returned entry's snapshot is immutable and safe to use after the
// entry is evicted.
func (c *Cache) Nearest(sig string, hashes []uint64) *Entry {
	c.mu.Lock()
	var candidates []*Entry
	c.lru.Each(func(e *Entry) bool {
		if e.Snap != nil && e.Sig == sig {
			candidates = append(candidates, e)
		}
		return len(candidates) < nearestScan
	})
	c.mu.Unlock()

	var best *Entry
	bestScore := minOverlap
	for _, e := range candidates {
		if score := aig.OverlapFraction(hashes, e.Snap.NodeHashes()); score >= bestScore {
			best, bestScore = e, score
		}
	}
	return best
}

// RecordECOHit counts a miss that was served by delta-remapping.
func (c *Cache) RecordECOHit() {
	c.mu.Lock()
	c.ecoHits++
	c.mu.Unlock()
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		ECOHits:   c.ecoHits,
		Evictions: c.lru.Evictions(),
		Bytes:     c.lru.Bytes(),
		Entries:   c.lru.Len(),
		Snapshots: c.snapshots,
	}
}

// Do runs compute under a singleflight keyed by k: the first caller (the
// leader) executes it while concurrent callers with the same key block and
// share the leader's entry and error. shared reports whether this call
// piggybacked on another's computation; shared results are counted as
// cache hits (the work was deduplicated away). compute typically re-checks
// Get, falls back to ECO or a full map, and Adds the entry itself.
func (c *Cache) Do(k Key, compute func() (*Entry, error)) (e *Entry, shared bool, err error) {
	e, shared, err = c.flight.Do(k, compute)
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return e, shared, err
}
