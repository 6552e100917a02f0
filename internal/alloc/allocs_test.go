//go:build !race

package alloc

import "testing"

// The race detector instruments allocations, so these counts hold only
// in a normal build.

// TestContiguousRepeatWidthAllocatesOnlyNodes: a width's candidate box
// shapes are enumerated once, so allocating that width again allocates
// only the returned node slice.
func TestContiguousRepeatWidthAllocatesOnlyNodes(t *testing.T) {
	c := NewContiguousTorus(8, 8, 8)
	for _, width := range []int{1, 5, 37, 128, 512} {
		allocs := testing.AllocsPerRun(20, func() {
			nodes, ok := c.Alloc(width)
			if !ok {
				t.Fatalf("width %d did not fit an empty machine", width)
			}
			c.Free(nodes)
		})
		if allocs != 1 {
			t.Errorf("width %d: %v allocations per Alloc, want 1 (the node slice)", width, allocs)
		}
	}
}
