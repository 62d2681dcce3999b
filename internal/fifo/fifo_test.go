package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives seeded random Push/Pop/At/Clear
// sequences against a plain slice and compares the whole contents after
// every step. Each seed starts from a zero-value queue, and the run as a
// whole must have wrapped the head around the ring and grown the ring
// while it was wrapped.
func TestQueueMatchesSliceModel(t *testing.T) {
	var wraps, wrappedGrows int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []int
		next := 0
		pushBias := 0.5
		for step := 0; step < 3000; step++ {
			if step%500 == 0 {
				pushBias = 0.3 + 0.5*rng.Float64()
			}
			switch r := rng.Float64(); {
			case r < 0.005:
				q.Clear()
				model = model[:0]
			case r < 0.1 && len(model) > 0:
				i := rng.Intn(len(model))
				next++
				*q.At(i) = next
				model[i] = next
			case r < 0.1+pushBias:
				if q.n == len(q.buf) && q.head != 0 {
					wrappedGrows++
				}
				next++
				q.Push(next)
				model = append(model, next)
			case len(model) > 0:
				if q.head == len(q.buf)-1 {
					wraps++
				}
				if got, want := q.Pop(), model[0]; got != want {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, want)
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
			for i, want := range model {
				if got := *q.At(i); got != want {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, got, want)
				}
			}
		}
	}
	if wraps == 0 || wrappedGrows == 0 {
		t.Fatalf("sequences never exercised the ring: %d wrap-arounds, %d grows while wrapped", wraps, wrappedGrows)
	}
}

func TestQueueZeroValue(t *testing.T) {
	var q Queue[string]
	if q.Len() != 0 {
		t.Fatalf("zero queue Len = %d", q.Len())
	}
	q.Clear()
	q.Push("a")
	q.Push("b")
	if got := q.Pop(); got != "a" {
		t.Fatalf("Pop = %q, want a", got)
	}
	if got := *q.At(0); got != "b" {
		t.Fatalf("At(0) = %q, want b", got)
	}
}

func TestQueuePanics(t *testing.T) {
	full := func() *Queue[int] {
		q := &Queue[int]{}
		for i := 0; i < 3; i++ {
			q.Push(i)
		}
		return q
	}
	drained := full()
	for drained.Len() > 0 {
		drained.Pop()
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"Pop on zero queue", func() { var q Queue[int]; q.Pop() }},
		{"Pop on drained queue", func() { drained.Pop() }},
		{"At on zero queue", func() { var q Queue[int]; q.At(0) }},
		{"At(-1)", func() { full().At(-1) }},
		{"At(Len)", func() { full().At(3) }},
		{"At after Clear", func() { q := full(); q.Clear(); q.At(0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			c.op()
		})
	}
}

// TestPopZeroesSlot checks that neither Pop nor Clear leaves a reference
// behind in the backing array, so queued pooled packets and jobs are not
// kept alive by the queue. Clear runs on a queue that wraps around the end
// of its ring.
func TestPopZeroesSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 12; i++ {
		v := i
		q.Push(&v)
		if i < 6 {
			slot := q.head
			if p := q.Pop(); *p != i {
				t.Fatalf("Pop = %d, want %d", *p, i)
			}
			if q.buf[slot] != nil {
				t.Fatalf("Pop left its pointer in vacated slot %d", slot)
			}
		}
	}
	if q.head+q.n <= len(q.buf) {
		t.Fatalf("queue does not wrap: head %d, len %d, cap %d", q.head, q.n, len(q.buf))
	}
	q.Clear()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("Clear left a pointer in slot %d", i)
		}
	}
}

var sink int

// BenchmarkQueue measures one Push plus one Pop on a queue held at a
// steady depth; the cost must not grow with the depth.
func BenchmarkQueue(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"d32", 32}, {"d4k", 4 << 10}, {"d16k", 16 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			var q Queue[int]
			for i := 0; i < c.depth; i++ {
				q.Push(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(i)
				sink += q.Pop()
			}
		})
	}
}
