package lib

import (
	"fmt"
	"io"
)

func Dead() {} // want "func Dead has no non-test reference"

var DeadVar = 1 // want "var DeadVar has no non-test reference"

const DeadConst = 2 // want "const DeadConst has no non-test reference"

// UsedInPkg is called from its own package.
func UsedInPkg() {}

// helper is unexported and called from its own package.
func helper() { UsedInPkg() }

// UsedCross is called from another package.
func UsedCross() { helper() }

// TestOnly is called only from lib_test.go.
func TestOnly() {} // want "func TestOnly has no non-test reference"

// testOnly is unexported and called only from lib_test.go.
func testOnly() {} // want "func testOnly has no non-test reference"

// main is an ordinary name outside a main package.
func main() {} // want "func main has no non-test reference"

func init() {}

func _() {}

var _ = 0

// node is referenced only by its own method.
type node struct{ next *node } // want "type node has no non-test reference"

func (n *node) depth() int { // want "method node.depth has no non-test reference"
	if n.next == nil {
		return 1
	}
	return 1 + n.next.depth()
}

// workload is an unexported interface; spin's unexported methods satisfy
// it and need no direct caller.
type workload interface {
	run() int
	close()
}

type spin struct{ n int }

func (s *spin) run() int { s.n++; return s.n }

func (s *spin) close() { s.n = 0 }

// Drive reaches spin's methods only through workload.
func Drive() int {
	var w workload = &spin{}
	defer w.close()
	return w.run()
}

// Recurse calls only itself.
func Recurse(n int) { // want "func Recurse has no non-test reference"
	if n > 0 {
		Recurse(n - 1)
	}
}

// Lonely is referenced only by its own method.
type Lonely struct{ next *Lonely } // want "type Lonely has no non-test reference"

func (l *Lonely) String() string { return fmt.Sprint(l.next == nil) }

// Sink is a module interface.
type Sink interface{ Put(v int) }

// Drain reaches Put only through Sink.
func Drain(s Sink) { s.Put(1) }

// Box implements Sink; Put needs no direct caller, Peek does.
type Box struct{ v int }

func (b *Box) Put(v int) { b.v = v }

func (b *Box) Peek() int { return b.v } // want "method Box.Peek has no non-test reference"

// Writer satisfies io.Writer, a std interface.
type Writer struct{ n int }

func (w *Writer) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// Discard hands a Writer to a std consumer.
func Discard() io.Writer { return &Writer{} }

// Err is an error that wraps another.
type Err struct{ inner error }

func (e *Err) Error() string { return "lib: " + e.inner.Error() }

func (e *Err) Unwrap() error { return e.inner }

func (e *Err) Cause() error { return e.inner } // want "method Err.Cause has no non-test reference"

// Wrap returns an Err.
func Wrap(err error) error { return &Err{inner: err} }

// Map is generic and called with an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Stack is a generic type; Push is called on an instantiation.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Len() int { return len(s.items) } // want "method Stack.Len has no non-test reference"

// Unused is a generic function nothing instantiates.
func Unused[T any](v T) T { return v } // want "func Unused has no non-test reference"
