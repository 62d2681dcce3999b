// Package freelist provides the simulator's one free list of recycled
// structs. The pooled router, switch, link and host actions and the TLP
// pool all draw from it, so a steady-state hop allocates nothing.
package freelist

// List is a LIFO stack of recycled *T. The zero value is an empty list
// ready to use. Put zeroes the struct it takes back, so a struct comes out
// of Get as Put left it. A List is not safe for concurrent use.
type List[T any] struct {
	stack []*T
}

// Get pops the most recently put struct, or allocates a new one when the
// list is empty.
func (l *List[T]) Get() *T {
	n := len(l.stack) - 1
	if n < 0 {
		return new(T)
	}
	p := l.stack[n]
	l.stack[n] = nil
	l.stack = l.stack[:n]
	return p
}

// Put zeroes *p and pushes p for a later Get. A caller that wants a field
// to survive recycling, such as a retained buffer, sets it again after Put;
// nothing else may touch *p until Get hands it out.
func (l *List[T]) Put(p *T) {
	var zero T
	*p = zero
	l.stack = append(l.stack, p)
}
