package pcie

import (
	"bytes"
	"testing"
)

func TestTagTableAllocAndComplete(t *testing.T) {
	tt := NewTagTable(8)
	var got []byte
	tag, ok := tt.Alloc(6, func(data []byte) { got = data })
	if !ok {
		t.Fatal("Alloc failed on empty table")
	}
	if tt.Outstanding() != 1 || len(tt.free) != 7 {
		t.Fatalf("Outstanding/Free = %d/%d, want 1/7", tt.Outstanding(), len(tt.free))
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("callback fired before Last completion")
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: []byte{4, 5, 6}, Last: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("reassembled data = %v", got)
	}
	if tt.Outstanding() != 0 || len(tt.free) != 8 {
		t.Fatalf("tag not recycled: %d/%d", tt.Outstanding(), len(tt.free))
	}
}

func TestTagTableExhaustion(t *testing.T) {
	tt := NewTagTable(2)
	cb := func([]byte) {}
	if _, ok := tt.Alloc(1, cb); !ok {
		t.Fatal("first Alloc failed")
	}
	tag2, ok := tt.Alloc(1, cb)
	if !ok {
		t.Fatal("second Alloc failed")
	}
	if _, ok := tt.Alloc(1, cb); ok {
		t.Fatal("Alloc beyond capacity succeeded")
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag2, Data: []byte{9}, Last: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Alloc(1, cb); !ok {
		t.Fatal("Alloc after free failed")
	}
}

func TestTagTableUnknownTag(t *testing.T) {
	tt := NewTagTable(4)
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: 3, Data: []byte{1}, Last: true}); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestTagTableOverflowAndShortRead(t *testing.T) {
	tt := NewTagTable(4)
	tag, _ := tt.Alloc(2, func([]byte) {})
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: []byte{1, 2, 3}, Last: true}); err == nil {
		t.Fatal("overflowing completion accepted")
	}

	tt2 := NewTagTable(4)
	tag2, _ := tt2.Alloc(10, func([]byte) {})
	if err := tt2.HandleCompletion(&TLP{Kind: CplD, Tag: tag2, Data: []byte{1}, Last: true}); err == nil {
		t.Fatal("short read accepted")
	}
}

func TestTagTableRejectsWrongKind(t *testing.T) {
	tt := NewTagTable(4)
	if err := tt.HandleCompletion(&TLP{Kind: MWr, Data: []byte{1}}); err == nil {
		t.Fatal("MWr accepted as completion")
	}
}

func TestTagTableCapacityBounds(t *testing.T) {
	for _, bad := range []int{0, -1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d did not panic", bad)
				}
			}()
			NewTagTable(bad)
		}()
	}
	tt := NewTagTable(256)
	if len(tt.free) != 256 {
		t.Fatalf("Free = %d, want 256", len(tt.free))
	}
}

func TestTagTableAllocValidation(t *testing.T) {
	tt := NewTagTable(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-length Alloc did not panic")
			}
		}()
		tt.Alloc(0, func([]byte) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil-callback Alloc did not panic")
			}
		}()
		tt.Alloc(8, nil)
	}()
}

// TestTagTableDoubleCompletion drives a second Last completion at an
// already-freed tag: it must be rejected as unknown and must not push the
// tag onto the free list a second time, or Free() would grow past
// capacity and a later Alloc could hand the same tag to two readers.
func TestTagTableDoubleCompletion(t *testing.T) {
	tt := NewTagTable(4)
	tag, ok := tt.Alloc(2, func([]byte) {})
	if !ok {
		t.Fatal("Alloc failed on empty table")
	}
	done := &TLP{Kind: CplD, Tag: tag, Data: []byte{1, 2}, Last: true}
	if err := tt.HandleCompletion(done); err != nil {
		t.Fatal(err)
	}
	if len(tt.free) != 4 {
		t.Fatalf("Free = %d after completion, want 4", len(tt.free))
	}
	if err := tt.HandleCompletion(done); err == nil {
		t.Fatal("second completion on a freed tag not rejected")
	}
	if len(tt.free) != 4 || tt.Outstanding() != 0 {
		t.Fatalf("double completion grew the free list: Free=%d Outstanding=%d, want 4/0",
			len(tt.free), tt.Outstanding())
	}
}

// TestTagTableCancelAfterComplete cancels after the read already finished:
// CancelAll must find nothing to cancel and must not re-free the tag.
func TestTagTableCancelAfterComplete(t *testing.T) {
	tt := NewTagTable(4)
	tag, ok := tt.Alloc(1, func([]byte) {})
	if !ok {
		t.Fatal("Alloc failed on empty table")
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: []byte{9}, Last: true}); err != nil {
		t.Fatal(err)
	}
	if n := tt.CancelAll(); n != 0 {
		t.Fatalf("CancelAll cancelled %d reads after completion, want 0", n)
	}
	if len(tt.free) != 4 {
		t.Fatalf("Free = %d after cancel-after-complete, want 4", len(tt.free))
	}
}

// TestTagTableDoubleCancel runs CancelAll twice: the second sweep must be
// a no-op, keeping Free() at capacity.
func TestTagTableDoubleCancel(t *testing.T) {
	tt := NewTagTable(4)
	for i := 0; i < 3; i++ {
		if _, ok := tt.Alloc(1, func([]byte) { t.Fatal("cancelled read ran its callback") }); !ok {
			t.Fatalf("Alloc %d failed", i)
		}
	}
	if n := tt.CancelAll(); n != 3 {
		t.Fatalf("first CancelAll = %d, want 3", n)
	}
	if n := tt.CancelAll(); n != 0 {
		t.Fatalf("second CancelAll = %d, want 0", n)
	}
	if len(tt.free) != 4 || tt.Outstanding() != 0 {
		t.Fatalf("double cancel corrupted the table: Free=%d Outstanding=%d, want 4/0",
			len(tt.free), tt.Outstanding())
	}
}

// TestTagTableCancelThenStaleCompletion cancels an outstanding read and
// then delivers its (now stale) completion: the completion must be
// rejected and the free list must stay at capacity — the fabric can
// legitimately deliver a completion for a read the requester abandoned.
func TestTagTableCancelThenStaleCompletion(t *testing.T) {
	tt := NewTagTable(4)
	tag, ok := tt.Alloc(1, func([]byte) { t.Fatal("cancelled read ran its callback") })
	if !ok {
		t.Fatal("Alloc failed on empty table")
	}
	if n := tt.CancelAll(); n != 1 {
		t.Fatalf("CancelAll = %d, want 1", n)
	}
	if err := tt.HandleCompletion(&TLP{Kind: CplD, Tag: tag, Data: []byte{1}, Last: true}); err == nil {
		t.Fatal("stale completion after cancel not rejected")
	}
	if len(tt.free) != 4 {
		t.Fatalf("stale completion grew the free list: Free=%d, want 4", len(tt.free))
	}
}
