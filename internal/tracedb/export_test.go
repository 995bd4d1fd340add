package tracedb

// SetPoison puts s in poison mode, for tests outside the package: evicted
// traces are cleared (trace.Poison) and never reused.
func SetPoison(s *Store) { s.poison = true }
