package trace

// Root decodes the trace and returns its root span (RootIndex), or a zero
// Span if there is none.
func (t *Trace) Root() Span {
	spans := t.AppendSpans(nil)
	if i := RootIndex(spans); i >= 0 {
		return spans[i]
	}
	return Span{}
}
