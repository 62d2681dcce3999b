package freelist

import (
	"math/rand"
	"reflect"
	"testing"
)

type item struct {
	a int
	b string
	p *int
	s []byte
}

func isZero(p *item) bool { return reflect.ValueOf(*p).IsZero() }

// TestListMatchesStackModel drives seeded random Get/Put sequences against
// a plain slice stack. Get must hand back the most recently put pointer
// (LIFO), or a struct not already handed out when the model is empty; Put
// must zero every field. Each seed starts from a zero-value list.
func TestListMatchesStackModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l List[item]
		var model []*item
		var out []*item // structs handed out and not yet put back
		for step := 0; step < 2000; step++ {
			if rng.Intn(2) == 0 || len(out) == 0 {
				p := l.Get()
				if n := len(model); n > 0 {
					if p != model[n-1] {
						t.Fatalf("seed %d step %d: Get = %p, want %p (most recent Put)", seed, step, p, model[n-1])
					}
					model = model[:n-1]
				} else {
					for _, q := range out {
						if p == q {
							t.Fatalf("seed %d step %d: Get on an empty list returned %p, which is still out", seed, step, p)
						}
					}
				}
				if !isZero(p) {
					t.Fatalf("seed %d step %d: Get returned a non-zero struct %+v", seed, step, *p)
				}
				v := step
				*p = item{a: step + 1, b: "x", p: &v, s: make([]byte, 1)}
				out = append(out, p)
				continue
			}
			i := rng.Intn(len(out))
			p := out[i]
			out = append(out[:i], out[i+1:]...)
			l.Put(p)
			if !isZero(p) {
				t.Fatalf("seed %d step %d: Put left fields set: %+v", seed, step, *p)
			}
			model = append(model, p)
		}
	}
}

// TestGetPutAllocatesNothing pins the point of the list: once warmed, a
// Get/Put cycle reuses the struct and the stack's backing array.
func TestGetPutAllocatesNothing(t *testing.T) {
	var l List[item]
	l.Put(l.Get())
	allocs := testing.AllocsPerRun(1000, func() {
		p := l.Get()
		p.a = 1
		l.Put(p)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put cycle allocates %v per run, want 0", allocs)
	}
}
