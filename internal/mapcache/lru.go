package mapcache

import "container/list"

// LRU is a byte-budgeted least-recently-used map keyed by content address:
// the storage behind both the result cache and choice.Cache. It is not
// safe for concurrent use; owners guard it with their own lock, which also
// covers their hit/miss counters.
type LRU[V any] struct {
	budget, bytes int64
	ll            *list.List // front = most recently used; values are *lruItem[V]
	byKey         map[Key]*list.Element
	evictions     int64
	// onRemove, when set, sees every value that leaves the map, whether
	// replaced under its key or evicted.
	onRemove func(V)
}

type lruItem[V any] struct {
	key   Key
	val   V
	bytes int64
}

// NewLRU builds an empty LRU holding at most budget bytes. onRemove may be
// nil.
func NewLRU[V any](budget int64, onRemove func(V)) *LRU[V] {
	return &LRU[V]{budget: budget, ll: list.New(), byKey: make(map[Key]*list.Element), onRemove: onRemove}
}

// Get returns the value stored under k, promoting it to most recently used.
func (l *LRU[V]) Get(k Key) (V, bool) {
	if el, ok := l.byKey[k]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).val, true
	}
	var zero V
	return zero, false
}

// Add stores v under k with the given size, replacing any previous
// occupant, and evicts least-recently-used values until the byte budget
// holds. A value larger than the whole budget is not stored; Add reports
// whether v was.
func (l *LRU[V]) Add(k Key, v V, bytes int64) bool {
	if bytes > l.budget {
		return false
	}
	if el, ok := l.byKey[k]; ok {
		l.remove(el)
	}
	l.byKey[k] = l.ll.PushFront(&lruItem[V]{key: k, val: v, bytes: bytes})
	l.bytes += bytes
	for l.bytes > l.budget && l.ll.Len() > 1 {
		l.remove(l.ll.Back())
		l.evictions++
	}
	return true
}

func (l *LRU[V]) remove(el *list.Element) {
	it := el.Value.(*lruItem[V])
	l.ll.Remove(el)
	delete(l.byKey, it.key)
	l.bytes -= it.bytes
	if l.onRemove != nil {
		l.onRemove(it.val)
	}
}

// Each calls fn on the stored values from most to least recently used,
// without promoting them, until fn returns false.
func (l *LRU[V]) Each(fn func(V) bool) {
	for el := l.ll.Front(); el != nil; el = el.Next() {
		if !fn(el.Value.(*lruItem[V]).val) {
			return
		}
	}
}

// Len is the number of stored values.
func (l *LRU[V]) Len() int { return l.ll.Len() }

// Bytes is the summed size of the stored values.
func (l *LRU[V]) Bytes() int64 { return l.bytes }

// Evictions counts values dropped to stay inside the budget.
func (l *LRU[V]) Evictions() int64 { return l.evictions }
