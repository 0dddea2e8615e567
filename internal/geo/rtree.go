package geo

import (
	"cmp"
	"math"
	"slices"
)

// item is an identified point stored in the R-tree.
type item struct {
	ID    uint64
	Point Point
	idx   int32 // index into Store.all
}

// rnode is one node of the Store's R-tree: a leaf holds points, an interior
// node holds children, and bounds covers everything beneath it.
type rnode struct {
	bounds   Rect
	leaf     bool
	items    []item   // when leaf
	children []*rnode // when interior
}

const rtMaxEntries = 16

// packRTree builds an R-tree over items by STR (sort-tile-recursive)
// packing, which yields near-optimal leaves for a static set. It sorts items
// in place and the leaves share its storage.
func packRTree(items []item) *rnode {
	if len(items) == 0 {
		return &rnode{leaf: true}
	}
	return packUp(packLeaves(items))
}

// packLeaves cuts items into vertical slices by longitude, sorts each slice
// by latitude and fills leaves from it.
func packLeaves(items []item) []*rnode {
	slices.SortFunc(items, func(a, b item) int { return cmp.Compare(a.Point.Lon, b.Point.Lon) })

	numLeaves := (len(items) + rtMaxEntries - 1) / rtMaxEntries
	numSlices := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	sliceSize := numSlices * rtMaxEntries

	leaves := make([]*rnode, 0, numLeaves)
	for s := 0; s < len(items); s += sliceSize {
		slice := items[s:min(s+sliceSize, len(items))]
		slices.SortFunc(slice, func(a, b item) int { return cmp.Compare(a.Point.Lat, b.Point.Lat) })
		for l := 0; l < len(slice); l += rtMaxEntries {
			end := min(l+rtMaxEntries, len(slice))
			leaf := &rnode{leaf: true, items: slice[l:end:end]}
			leaf.recalcBounds()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packUp groups nodes rtMaxEntries to a parent, level by level, until one
// root is left.
func packUp(nodes []*rnode) *rnode {
	for len(nodes) > 1 {
		slices.SortFunc(nodes, func(a, b *rnode) int {
			ca, cb := a.bounds.Center(), b.bounds.Center()
			if c := cmp.Compare(ca.Lon, cb.Lon); c != 0 {
				return c
			}
			return cmp.Compare(ca.Lat, cb.Lat)
		})
		parents := make([]*rnode, 0, (len(nodes)+rtMaxEntries-1)/rtMaxEntries)
		for s := 0; s < len(nodes); s += rtMaxEntries {
			end := min(s+rtMaxEntries, len(nodes))
			parent := &rnode{children: nodes[s:end:end]}
			parent.recalcBounds()
			parents = append(parents, parent)
		}
		nodes = parents
	}
	return nodes[0]
}

// recalcBounds sets n.bounds to cover its items or children; packing never
// builds an empty node.
func (n *rnode) recalcBounds() {
	if n.leaf {
		b := rectOf(n.items[0].Point)
		for _, it := range n.items[1:] {
			b = b.Union(rectOf(it.Point))
		}
		n.bounds = b
		return
	}
	b := n.children[0].bounds
	for _, c := range n.children[1:] {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}
