package stats

import (
	"sort"

	"repro/internal/brstate"
)

// stateVersion is the Counters snapshot payload version.
const stateVersion = 1

// SaveState implements brstate.Saver. Counters are written as sorted
// (name, value) pairs so the encoding is independent of registration order.
func (c *Counters) SaveState(w *brstate.Writer) {
	names := c.Names()
	w.Len(len(names))
	for _, name := range names {
		w.String(name)
		w.U64(c.vals[c.idx[name]])
	}
}

// LoadState implements brstate.Loader. Names absent from this instance are
// registered on load (registration is idempotent), so a snapshot taken after
// a lazily-registered counter first fired restores into a fresh instance
// that has not reached that point yet.
func (c *Counters) LoadState(r *brstate.Reader) error {
	n := r.LenAny()
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		val := r.U64()
		if r.Err() == nil {
			c.vals[c.slot(name)] = val
		}
	}
	return r.Err()
}

// StateVersion returns the Counters payload version for section envelopes.
func (c *Counters) StateVersion() uint32 { return stateVersion }

// Snapshot returns all counter values keyed by name (a detached copy).
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for i, name := range c.names {
		out[name] = c.vals[i]
	}
	return out
}

// SortedNames returns names sorted; kept close to the codec so both agree.
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
