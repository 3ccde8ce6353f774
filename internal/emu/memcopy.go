package emu

// CopyFrom replaces m's resident pages with private copies of src's, so
// stores into either memory never show through the other.
func (m *Memory) CopyFrom(src *Memory) {
	backing := make([][pageSize]byte, len(src.pages))
	m.pages = make(map[uint64]*[pageSize]byte, len(src.pages))
	i := 0
	// Each page is copied independently, so visiting order cannot matter.
	for pn, p := range src.pages { //brlint:allow determinism
		backing[i] = *p
		m.pages[pn] = &backing[i]
		i++
	}
}
