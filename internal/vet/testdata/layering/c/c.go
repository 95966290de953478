// Package c may import a, but reaches sideways into b instead, which
// also leaves its declared edge to a unused.
package c // want `fixture/layering/c never imports fixture/layering/a: stale edge in the layering manifest`

import (
	"os" // ok: stdlib imports are never constrained

	"fixture/layering/b" // want `imports fixture/layering/b: edge not in the layering manifest`
)

// Total leans on the undeclared edge.
func Total() int { return b.Sum() + len(os.Args) }
