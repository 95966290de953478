// Package reach is a golden fixture for the reach analyzer: the
// production importer of its internal package lib.
package reach

import (
	"io"

	"fixture/reach/internal/lib"
)

// Exported names outside internal/ are not the rule's business.
var Unreached = 1 // ok: not under internal/

// Use reaches part of lib's surface: through identifiers, a method
// value, a generic instance and the interfaces the module names.
func Use() float64 {
	cfg := lib.DefaultConfig()
	if cfg.Validate() != nil {
		return 0
	}
	var s lib.Shape = lib.Square{}
	var w io.Writer = lib.Sink{}
	_, _ = w.Write(nil)
	var st lib.Stack[int]
	st.Push(lib.Used)
	size := lib.NewBox().Size
	return s.Area() + float64(size())
}
