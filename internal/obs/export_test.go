package obs

// CounterRegistered reports whether a counter named name is registered,
// whether or not it has recorded anything (Snap leaves out zeros).
func CounterRegistered(name string) bool {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	_, ok := registry.counters[name]
	return ok
}
