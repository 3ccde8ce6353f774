package stats

import (
	"sort"

	"repro/internal/brstate"
)

// CopyFrom copies src's counter values into c by name. Counters absent from
// c are registered as they are copied (registration is idempotent): a
// lazily-registered counter may have fired in src but not yet in c, so the
// two instances' index orders can differ.
func (c *Counters) CopyFrom(src *Counters) {
	for i, name := range src.names {
		c.vals[c.slot(name)] = src.vals[i]
	}
}

// Snapshot returns all counter values keyed by name (a detached copy).
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for i, name := range c.names {
		out[name] = c.vals[i]
	}
	return out
}

// sortedKeys returns m's keys sorted, the order SaveCounterMap writes.
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	// Key gathering is order-insensitive; the sort below restores determinism.
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SaveCounterMap writes a plain name->value map deterministically (sorted by
// name). Used for Result payloads that carry counter-shaped maps.
func SaveCounterMap(w *brstate.Writer, m map[string]uint64) {
	keys := sortedKeys(m)
	w.Len(len(keys))
	for _, k := range keys {
		w.String(k)
		w.U64(m[k])
	}
}

// LoadCounterMap reads a map written by SaveCounterMap. A zero-length map is
// returned as nil so round trips preserve nil-ness of empty maps.
func LoadCounterMap(r *brstate.Reader) map[string]uint64 {
	n := r.LenBounded(16) // name length prefix + u64 value per entry
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.U64()
	}
	return m
}
